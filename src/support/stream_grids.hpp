#pragma once
/// \file stream_grids.hpp
/// Platform-deterministic synthetic DEM grids for the streaming path:
/// bench_ci's stream/* cases, bench_timed's stream cases, and the
/// residency test in tests/test_stream.cpp draw the same grids from here.
///
/// Heights are built from triangle waves and splitmix64 integer-hash noise
/// only — plain IEEE add/mul/divide, no libm transcendentals — so the
/// quantized lattice, and therefore every streamed counter, is bit-identical
/// across hosts and toolchains (the property the shared baseline needs).

#include "terrain/asc_io.hpp"

namespace thsr::support {

inline u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Exact dyadic hash noise in [0, 1): 53 hashed bits scaled by 2^-53.
inline double hash01(u64 seed, u64 r, u64 c) {
  const u64 h = splitmix64(seed ^ splitmix64((r << 32) | (c & 0xffffffffull)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Triangle wave in [0, 1] with the given half-period (integer ramps, so
/// the division by `period` is exact for the small periods used here).
inline double tri_wave(u64 i, u64 period) {
  const u64 m = i % (2 * period);
  const u64 d = m < period ? m : 2 * period - m;
  return static_cast<double>(d) / static_cast<double>(period);
}

/// A terrain-like DEM for the streaming lattice (columns are viewing
/// depth): short ridges across the columns occlude each other, a long
/// swell runs down the rows, and hash noise breaks every tie.
inline AscGrid stream_grid(u32 cols, u32 rows, u64 seed) {
  AscGrid g;
  g.ncols = cols;
  g.nrows = rows;
  g.cellsize = 1.0;
  g.values.resize(std::size_t{cols} * rows);
  for (u32 r = 0; r < rows; ++r) {
    for (u32 c = 0; c < cols; ++c) {
      const double ridge = 36.0 * tri_wave(c, 9);
      const double swell = 18.0 * tri_wave(r, 57);
      const double noise = 9.0 * hash01(seed, r, c);
      g.values[std::size_t{r} * cols + c] = ridge + swell + noise;
    }
  }
  return g;
}

}  // namespace thsr::support

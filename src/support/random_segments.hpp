#pragma once
/// \file random_segments.hpp
/// The one shared deterministic segment-soup generator tests and benches
/// both draw from (benches call it directly; tests/test_util.hpp forwards
/// it with a smaller default range): a single definition means the two can
/// never drift apart and regenerate different soups for the same seed.
/// mt19937_64 sequences are specified by the standard, so the output is
/// identical on every platform.

#include <random>
#include <vector>

#include "geometry/predicates.hpp"

namespace thsr::support {

/// `n` random non-vertical segments, u-ascending, with integer
/// coordinates uniform in [-range, range]. Purely a function of
/// (seed, n, range).
inline std::vector<Seg2> random_segments(u64 seed, std::size_t n, i64 range) {
  std::mt19937_64 g{seed};
  std::uniform_int_distribution<i64> coord(-range, range);
  std::vector<Seg2> out;
  out.reserve(n);
  while (out.size() < n) {
    const i64 u0 = coord(g), u1 = coord(g);
    if (u0 == u1) continue;
    const i64 v0 = coord(g), v1 = coord(g);
    out.push_back(u0 < u1 ? Seg2{u0, v0, u1, v1} : Seg2{u1, v1, u0, v0});
  }
  return out;
}

}  // namespace thsr::support

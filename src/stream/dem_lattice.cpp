#include "stream/dem_lattice.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace thsr::stream {
namespace {

constexpr u32 kNoVert = 0xffffffffu;

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("dem_lattice: " + msg); }

}  // namespace

i64 lattice_ystep(u32 cols) { return kLatticeSpacing * (i64{cols} + 2); }

u32 max_window_rows(u32 cols) {
  THSR_CHECK(cols >= 2);
  const i64 x_extent = kLatticeSpacing * (i64{cols} - 1);
  if (x_extent > kMaxCoord) return 0;  // too wide for the lattice at any row count
  // Largest rows with ystep*(rows-1) + x_extent <= kMaxCoord.
  const i64 rows = (kMaxCoord - x_extent) / lattice_ystep(cols) + 1;
  return static_cast<u32>(std::min<i64>(rows, std::numeric_limits<u32>::max()));
}

i64 quantize_height(double v, const LatticeOptions& opt) {
  const double s = (v - opt.z_offset) * opt.z_scale;
  if (!std::isfinite(s) || std::abs(s) > static_cast<double>(kMaxCoord)) {
    fail("height " + std::to_string(v) +
         " leaves the coordinate range after scaling; lower LatticeOptions::z_scale");
  }
  return static_cast<i64>(std::llround(s));
}

u64 window_triangles(u32 cols, u32 rows, std::span<const double> values,
                     std::optional<double> nodata) {
  THSR_CHECK(values.size() >= std::size_t{rows} * cols);
  if (rows < 2) return 0;
  if (!nodata) return u64{2} * (cols - 1) * (rows - 1);
  const auto data = [&](std::size_t i) { return values[i] != *nodata; };
  u64 n = 0;
  for (u32 rr = 0; rr + 1 < rows; ++rr) {
    const std::size_t top = std::size_t{rr} * cols, bot = top + cols;
    for (u32 cc = 0; cc + 1 < cols; ++cc) {
      n += data(top + cc) && data(top + cc + 1) && data(bot + cc) && data(bot + cc + 1) ? 2 : 0;
    }
  }
  return n;
}

SlabBuild build_rows(u32 cols, u32 row_lo, u32 row_hi, std::span<const double> values,
                     std::optional<double> nodata, u64 tri_base, const LatticeOptions& opt) {
  THSR_CHECK(cols >= 2 && row_lo < row_hi);
  const u32 rows = row_hi - row_lo;
  THSR_CHECK(values.size() >= std::size_t{rows} * cols);
  if (kLatticeSpacing * (i64{cols} - 1) > kMaxCoord) {
    fail("grid of " + std::to_string(cols) + " columns exceeds the lattice x budget");
  }
  if (rows > max_window_rows(cols)) {
    fail("window of " + std::to_string(rows) + " rows x " + std::to_string(cols) +
         " cols exceeds the coordinate budget (max " + std::to_string(max_window_rows(cols)) +
         " rows); lower the slab row count");
  }

  const i64 ystep = lattice_ystep(cols);
  const auto at = [&](u32 rr, u32 cc) { return values[std::size_t{rr} * cols + cc]; };
  const auto is_nodata = [&](u32 rr, u32 cc) { return nodata && at(rr, cc) == *nodata; };

  SlabBuild out;
  out.row_lo = row_lo;
  out.row_hi = row_hi;

  std::vector<u32> vid(std::size_t{rows} * cols, kNoVert);
  std::vector<Vertex3> verts;
  std::vector<Triangle> tris;
  for (u32 rr = 0; rr < rows; ++rr) {
    for (u32 cc = 0; cc < cols; ++cc) {
      if (is_nodata(rr, cc)) continue;
      const i64 x = kLatticeSpacing * cc;
      vid[std::size_t{rr} * cols + cc] = static_cast<u32>(verts.size());
      verts.push_back(Vertex3{x, ystep * rr + x, quantize_height(at(rr, cc), opt)});
    }
  }
  const auto v_at = [&](u32 rr, u32 cc) { return vid[std::size_t{rr} * cols + cc]; };
  for (u32 rr = 0; rr + 1 < rows; ++rr) {
    for (u32 cc = 0; cc + 1 < cols; ++cc) {
      const u32 v00 = v_at(rr, cc), v10 = v_at(rr + 1, cc);
      const u32 v01 = v_at(rr, cc + 1), v11 = v_at(rr + 1, cc + 1);
      if (v00 == kNoVert || v10 == kNoVert || v01 == kNoVert || v11 == kNoVert) continue;
      // Alternating diagonal by *global* cell parity: windows starting at
      // different rows must triangulate shared cells identically.
      if ((u64{row_lo} + rr + cc) % 2 == 0) {
        tris.push_back({v00, v10, v11});
        tris.push_back({v00, v11, v01});
      } else {
        tris.push_back({v00, v10, v01});
        tris.push_back({v10, v11, v01});
      }
      if (rr + 2 == rows) out.last_row_tris += 2;
    }
  }
  out.tri_count = tris.size();
  if (tri_base + out.tri_count >= u64{raster::kNoTriangle}) {
    fail("grid exceeds the u32 triangle id space (" + std::to_string(tri_base + out.tri_count) +
         " triangles)");
  }
  if (tris.empty()) return out;  // all-NODATA window: a background band

  // Pack away vertices only NODATA neighbours referenced.
  std::vector<u32> used(verts.size(), 0);
  for (const Triangle& tr : tris) used[tr.a] = used[tr.b] = used[tr.c] = 1;
  std::vector<u32> remap(verts.size(), 0);
  std::vector<Vertex3> packed;
  packed.reserve(verts.size());
  for (u32 i = 0; i < verts.size(); ++i) {
    if (used[i]) {
      remap[i] = static_cast<u32>(packed.size());
      packed.push_back(verts[i]);
    }
  }
  for (Triangle& tr : tris) tr = {remap[tr.a], remap[tr.b], remap[tr.c]};

  out.global_tri.resize(tris.size());
  for (u32 i = 0; i < tris.size(); ++i) out.global_tri[i] = static_cast<u32>(tri_base + i);
  out.terrain = Terrain::from_triangles(std::move(packed), std::move(tris));
  return out;
}

Terrain terrain_from_rows(u32 cols, u32 rows, std::span<const double> values,
                          std::optional<double> nodata, const LatticeOptions& opt) {
  SlabBuild b = build_rows(cols, 0, rows, values, nodata, /*tri_base=*/0, opt);
  if (b.empty()) fail("no NODATA-free cell to triangulate");
  return std::move(b.terrain);
}

raster::ImageWindow stream_window(u32 cols, u32 rows, i64 z_lo, i64 z_hi) {
  THSR_CHECK(cols >= 2 && rows >= 2 && z_lo <= z_hi);
  raster::ImageWindow w;
  w.y_lo = 0;
  w.y_hi = lattice_ystep(cols) * (i64{rows} - 1) + kLatticeSpacing * (i64{cols} - 1);
  w.z_lo = z_lo;
  w.z_hi = z_hi;
  // Same odd-extent padding as raster::default_window: no sample ordinate
  // of any resolution lands on the integer lattice.
  if ((w.y_hi - w.y_lo) % 2 == 0) w.y_hi += 1;
  if ((w.z_hi - w.z_lo) % 2 == 0) w.z_hi += 1;
  return w;
}

}  // namespace thsr::stream

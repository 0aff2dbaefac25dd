#include "raster/viewshed.hpp"

#include <algorithm>
#include <stdexcept>

namespace thsr::raster {

AscGrid viewshed_grid(const Terrain& t, const VisibilityMap& m, const AscMapping& reg,
                      const ViewshedOptions& opt) {
  if (reg.rows < 1 || reg.cols < 1) {
    throw std::invalid_argument("viewshed_grid: the mapping has no rows or no columns");
  }
  if (reg.vertex.size() != std::size_t{reg.rows} * reg.cols) {
    throw std::invalid_argument("viewshed_grid: the mapping needs rows * cols vertex entries");
  }
  if (std::any_of(reg.vertex.begin(), reg.vertex.end(),
                  [&](u32 v) { return v != kNoAscVertex && v >= t.vertex_count(); })) {
    throw std::invalid_argument("viewshed_grid: the mapping names a vertex the terrain lacks");
  }
  if (m.edge_slots() != t.edge_count()) {
    throw std::invalid_argument("viewshed_grid: the map was not solved from this terrain");
  }

  // Accumulate, per terrain vertex, the total and visible image-plane
  // length of its incident edges. Edge order is fixed, so the double
  // accumulation is deterministic for a given map.
  std::vector<double> total(t.vertex_count(), 0.0);
  std::vector<double> visible(t.vertex_count(), 0.0);
  std::vector<unsigned char> any_visible(t.vertex_count(), 0);
  for (u32 e = 0; e < t.edge_count(); ++e) {
    const Edge& ed = t.edges()[e];
    double w = 0.0, v = 0.0;
    bool any = false;
    if (t.is_sliver(e)) {
      const SliverInfo s = t.sliver(e);
      w = static_cast<double>(s.z_hi - s.z_lo);
      const auto& sv = m.sliver(e);
      any = sv && sv->visible;
      v = any ? w : 0.0;
    } else {
      const Seg2 s = t.image_segment(e);
      w = static_cast<double>(s.u1 - s.u0);
      for (const VisiblePiece& p : m.pieces(e)) {
        v += p.y1.approx() - p.y0.approx();
        any = true;
      }
    }
    for (const u32 vert : {ed.a, ed.b}) {
      total[vert] += w;
      visible[vert] += v;
      any_visible[vert] |= any;
    }
  }

  AscGrid out;
  out.ncols = reg.cols;
  out.nrows = reg.rows;
  out.xll = reg.xll;
  out.yll = reg.yll;
  out.cell_centered = reg.cell_centered;
  out.cellsize = reg.cellsize;
  out.nodata = opt.nodata;
  out.values.resize(std::size_t{reg.rows} * reg.cols);
  for (u32 r = 0; r < reg.rows; ++r) {
    for (u32 c = 0; c < reg.cols; ++c) {
      const u32 vert = reg.vertex_at(r, c);
      double val;
      if (vert == kNoAscVertex) {
        val = opt.nodata;
      } else if (opt.boolean_grid) {
        val = any_visible[vert] ? 1.0 : 0.0;
      } else {
        // Clamp accumulation roundoff so consumers can rely on [0, 1].
        val = total[vert] > 0.0 ? std::min(1.0, std::max(0.0, visible[vert] / total[vert])) : 0.0;
      }
      out.values[std::size_t{r} * reg.cols + c] = val;
    }
  }
  return out;
}

}  // namespace thsr::raster

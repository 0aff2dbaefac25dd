#include "raster/oracle.hpp"

#include <algorithm>

namespace thsr::raster {
namespace {

/// Exact value of segment `s` at abscissa u (duplicated from raster.cpp
/// on purpose: the oracle shares *sampling* with the scan-converter but
/// not its internals).
QY seg_at(const Seg2& s, const QY& u) {
  const i128 num =
      mul128(i128{s.v0} * (s.u1 - s.u0), u.q) + mul128(s.v1 - s.v0, u.p - mul128(s.u0, u.q));
  const i128 den = mul128(s.u1 - s.u0, u.q);
  return QY(num, den);
}

/// One triangle's intersection with the current column plane y = y0: a
/// surface interval from its near boundary crossing (x_n, z_n) to its far
/// one (x_f, z_f), x_n > x_f.
struct ColumnSegment {
  QY x_near, z_near, x_far, z_far;
  u32 tri{0};
};

/// Intersect triangle `ti` with the column y = y0. Returns false for
/// triangles the column misses or only grazes (a vertex touch — measure
/// zero, avoided by the odd-extent sampling lattice).
bool column_segment(const Terrain& t, u32 ti, const QY& y0, ColumnSegment& out) {
  const Triangle& tr = t.triangles()[ti];
  const u32 vs[3] = {tr.a, tr.b, tr.c};
  QY xs[3], zs[3];
  int found = 0;
  for (int k = 0; k < 3 && found < 3; ++k) {
    const Vertex3 &pa = t.vertex(vs[k]), &pb = t.vertex(vs[(k + 1) % 3]);
    if (pa.y == pb.y) continue;  // edge parallel to the column: no transversal crossing
    const Vertex3 &p = pa.y < pb.y ? pa : pb, &q = pa.y < pb.y ? pb : pa;
    if (cmp(y0, p.y) < 0 || cmp(y0, q.y) > 0) continue;
    const Seg2 ground{p.y, p.x, q.y, q.x};
    const Seg2 image{p.y, p.z, q.y, q.z};
    const QY x = seg_at(ground, y0), z = seg_at(image, y0);
    bool dup = false;
    for (int f = 0; f < found; ++f) dup = dup || (cmp(xs[f], x) == 0 && cmp(zs[f], z) == 0);
    if (dup) continue;  // column through a shared vertex: one geometric point
    xs[found] = x;
    zs[found] = z;
    ++found;
  }
  if (found < 2) return false;
  // At most two distinct crossing points exist for a line and a triangle
  // boundary; order them near (larger x) to far.
  int ni = 0, fi = 1;
  if (cmp(xs[0], xs[1]) < 0) std::swap(ni, fi);
  out = ColumnSegment{xs[ni], zs[ni], xs[fi], zs[fi], ti};
  return true;
}

}  // namespace

ImageRaster raycast_reference(const Terrain& t, const RasterOptions& opt) {
  validate(opt);
  const ImageWindow win = opt.window ? *opt.window : default_window(t);
  const par::ScopedConfig cfg(opt.threads, opt.backend);

  const u32 W = opt.width, H = opt.height, s = opt.supersample;
  ImageRaster out;
  out.width = W;
  out.height = H;
  out.supersample = s;
  out.window = win;
  const std::size_t px = std::size_t{W} * H;
  out.ids.assign(px, kNoTriangle);
  out.depth.assign(px, 0.0f);
  out.coverage.assign(px, 0.0f);
  out.samples = u64{W} * s * H * s;

  std::vector<u64> col_hits(W, 0);
  par::fan_items(W, [&](std::size_t c) {
    const u32 hs = H * s;
    std::vector<u32> sub_ids(std::size_t{s} * hs, kNoTriangle);
    std::vector<double> sub_depths(std::size_t{s} * hs, 0.0);
    std::vector<ColumnSegment> segs;
    u64 hits = 0;
    for (u32 k = 0; k < s; ++k) {
      const u32 i = static_cast<u32>(c) * s + k;
      const QY y0 = sample_y(win, W, s, i);
      segs.clear();
      for (u32 ti = 0; ti < t.triangle_count(); ++ti) {
        ColumnSegment cs;
        if (column_segment(t, ti, y0, cs)) segs.push_back(cs);
      }
      // Near-to-far: ground projections are interior-disjoint, so the
      // intervals order totally by their near crossings.
      std::sort(segs.begin(), segs.end(), [](const ColumnSegment& a, const ColumnSegment& b) {
        if (const int cx = cmp(a.x_near, b.x_near); cx != 0) return cx > 0;
        if (const int cx = cmp(a.x_far, b.x_far); cx != 0) return cx > 0;
        return a.tri < b.tri;
      });
      for (u32 j = 0; j < hs; ++j) {
        const QY z0 = sample_z(win, H, s, j);
        u32 tri = kNoTriangle;
        double dep = 0.0;
        // Walk intervals near to far until the ray crosses the surface.
        // A surface *rising* through z0 (z_near < z0 <= z_far) is a
        // top-side hit; a surface *descending* through z0
        // (z_far <= z0 < z_near) stops the ray on the underside —
        // background, never render-through. Intervals entirely above or
        // below the ray do not block it.
        for (const ColumnSegment& cs : segs) {
          const int cn = cmp(z0, cs.z_near), cf = cmp(z0, cs.z_far);
          if (cn > 0 && cf <= 0) {
            tri = cs.tri;
            const auto d = plane_depth(t, cs.tri, y0, z0);
            dep = d ? *d : cs.x_near.approx();
            ++hits;
            break;
          }
          if (cn < 0 && cf >= 0) break;  // underside: the ray is absorbed
        }
        sub_ids[std::size_t{k} * hs + j] = tri;
        sub_depths[std::size_t{k} * hs + j] = dep;
      }
    }
    detail::aggregate_column(static_cast<u32>(c), W, H, s, sub_ids, sub_depths, out.ids,
                             out.depth, out.coverage);
    col_hits[c] = hits;
  });
  for (u32 c = 0; c < W; ++c) out.hit_samples += col_hits[c];
  return out;
}

}  // namespace thsr::raster

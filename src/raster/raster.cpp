#include "raster/raster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace thsr::raster {
namespace {

/// Per-edge near triangle: of the triangles on either ground side of the
/// y-ascending edge, the one on the near side — the triangle a ray leaves
/// when the visible surface rises past the edge. kNoTriangle when the near
/// side is outside the terrain, and for sliver edges (dy == 0), which no
/// column ever crosses.
std::vector<u32> near_triangles(const Terrain& t) {
  std::vector<u32> near_tri(t.edge_count(), kNoTriangle);
  for (u32 ti = 0; ti < t.triangle_count(); ++ti) {
    const Triangle& tr = t.triangles()[ti];
    const Terrain::TriEdges& te = t.tri_edges(ti);
    // Side k of tri_edges joins (a,b), (b,c), (a,c); the third vertex is c, a, b.
    const u32 sides[3][3] = {{tr.a, tr.b, tr.c}, {tr.b, tr.c, tr.a}, {tr.a, tr.c, tr.b}};
    for (int k = 0; k < 3; ++k) {
      const Vertex3 &pa = t.vertex(sides[k][0]), &pb = t.vertex(sides[k][1]);
      if (pa.y == pb.y) continue;  // sliver edge
      const Vertex3 &p = pa.y < pb.y ? pa : pb, &q = pa.y < pb.y ? pb : pa;
      const int side = orient_ground(p, q, t.vertex(sides[k][2]));
      THSR_DCHECK(side != 0);  // non-degenerate ground triangle
      if (side > 0) near_tri[te[k]] = ti;
    }
  }
  return near_tri;
}

/// Exact value of segment `s` (u-ascending) at abscissa u = p/q, as a QY
/// over denominator (u1-u0)*q. Peak magnitude ~2^57 / 2^35 with the
/// kMaxRasterAxis sampling cap — comfortably inside i128 comparisons.
QY seg_value_at(const Seg2& s, const QY& u) {
  const i128 num =
      mul128(i128{s.v0} * (s.u1 - s.u0), u.q) + mul128(s.v1 - s.v0, u.p - mul128(s.u0, u.q));
  const i128 den = mul128(s.u1 - s.u0, u.q);
  return QY(num, den);
}

/// A visible edge crossing the current image column at (z, x): the exact
/// breakpoints of the column's visible staircase.
struct Crossing {
  QY z, x;
  u32 edge{0};
};

bool crossing_less(const Crossing& a, const Crossing& b) {
  if (const int c = cmp(a.z, b.z); c != 0) return c < 0;
  if (const int c = cmp(a.x, b.x); c != 0) return c > 0;  // nearer first at a tie
  return a.edge < b.edge;
}

/// One rasterization source: a terrain + (unstitched) map owning a
/// contiguous band of image sub-columns. Monolithic rasterization uses a
/// single set covering everything; the sharded path one set per slab.
struct ColumnSet {
  const Terrain* terrain{nullptr};       ///< null = the band is background
  const VisibilityMap* map{nullptr};
  const std::vector<u32>* tri_map{nullptr};  ///< local->source tri ids; null = identity
  u32 sub_lo{0}, sub_hi{0};              ///< owned sub-column range [lo, hi)
  std::vector<u32> near_tri;             ///< near_triangles(*terrain)
  std::vector<std::vector<u32>> buckets; ///< candidate edges per owned sub-column
};

/// Bucket every visible piece of `cs` into the sub-columns its y-interval
/// covers (binary search on the exact sample ordinates). Serial and
/// deterministic: buckets come out sorted by edge id.
void fill_buckets(ColumnSet& cs, const ImageWindow& w, u32 width, u32 s) {
  cs.buckets.assign(cs.sub_hi - cs.sub_lo, {});
  if (cs.terrain == nullptr || cs.map == nullptr) return;
  const auto first_sub = [&](const QY& y, bool strictly_greater) {
    u32 lo = cs.sub_lo, hi = cs.sub_hi;
    while (lo < hi) {
      const u32 mid = lo + (hi - lo) / 2;
      const int c = cmp(sample_y(w, width, s, mid), y);
      if (c < 0 || (strictly_greater && c == 0)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  for (u32 e = 0; e < cs.terrain->edge_count(); ++e) {
    if (cs.terrain->is_sliver(e)) continue;
    for (const VisiblePiece& p : cs.map->pieces(e)) {
      const u32 i0 = first_sub(p.y0, /*strictly_greater=*/false);
      const u32 i1 = first_sub(p.y1, /*strictly_greater=*/true);
      for (u32 i = i0; i < i1; ++i) cs.buckets[i - cs.sub_lo].push_back(e);
    }
  }
}

/// Per-task scratch reused across the sub-columns of one output column.
struct ColumnScratch {
  std::vector<Crossing> crossings;
  std::vector<u32> sub_ids;
  std::vector<double> sub_depths;
};

/// Scan-convert sub-column `i` (owned by `cs`) into the height*s-sample
/// spans `out_ids`/`out_depths`: gather visible crossings, sort by
/// (z, nearness), then sweep the sample ordinates bottom-up attributing
/// each sample to the near-side triangle of its upper crossing.
void scan_sub_column(const ColumnSet& cs, const ImageWindow& w, u32 width, u32 height, u32 s,
                     u32 i, std::vector<Crossing>& cr, std::span<u32> out_ids,
                     std::span<double> out_depths, u64& crossings_out, u64& hits_out) {
  const u32 hs = height * s;
  const QY y0 = sample_y(w, width, s, i);
  cr.clear();
  for (const u32 e : cs.buckets[i - cs.sub_lo]) {
    cr.push_back(Crossing{seg_value_at(cs.terrain->image_segment(e), y0),
                          seg_value_at(cs.terrain->ground_segment(e), y0), e});
  }
  std::sort(cr.begin(), cr.end(), crossing_less);
  // Two abutting pieces of one edge can both cover a sample landing on
  // their junction; the duplicates are identical and adjacent after the
  // sort.
  cr.erase(std::unique(cr.begin(), cr.end(),
                       [](const Crossing& a, const Crossing& b) { return a.edge == b.edge; }),
           cr.end());
  crossings_out += cr.size();

  u32 kc = 0;  // first crossing with z >= the current sample ordinate
  for (u32 j = hs; j-- > 0;) {  // bottom row upward: z ascending
    const QY z0 = sample_z(w, height, s, j);
    while (kc < cr.size() && cmp(cr[kc].z, z0) < 0) ++kc;
    u32 tri = kNoTriangle;
    double dep = 0.0;
    if (kc < cr.size()) {
      const u32 local = cs.near_tri[cr[kc].edge];
      if (local != kNoTriangle) {
        const auto d = plane_depth(*cs.terrain, local, y0, z0);
        dep = d ? *d : cr[kc].x.approx();  // edge-on plane: depth of the crossing
        tri = cs.tri_map != nullptr ? (*cs.tri_map)[local] : local;
        ++hits_out;
      }
    }
    out_ids[j] = tri;
    out_depths[j] = dep;
  }
}

void check_window(const ImageWindow& w) {
  if (!(w.y_lo < w.y_hi && w.z_lo < w.z_hi)) {
    throw std::invalid_argument("raster: the window needs y_lo < y_hi and z_lo < z_hi");
  }
}

/// A map solved from another terrain has a different edge count.
void require_map_of(const Terrain& t, const VisibilityMap& m, const char* who) {
  if (m.edge_slots() != t.edge_count()) {
    throw std::invalid_argument(std::string(who) + ": the map was not solved from this terrain");
  }
}

/// The shared engine behind rasterize / rasterize_sharded: fans output
/// columns over the fork-join backend; every column writes a disjoint
/// slice of the output and its own stats slot, so the image and the
/// counters are bit-identical across backends and thread counts.
ImageRaster rasterize_impl(std::vector<ColumnSet> sets, const RasterOptions& opt,
                           const ImageWindow& win) {
  const par::ScopedConfig cfg(opt.threads, opt.backend);

  const u32 W = opt.width, H = opt.height, s = opt.supersample;
  for (ColumnSet& cs : sets) {
    if (cs.terrain != nullptr) {
      THSR_CHECK(cs.map != nullptr && cs.map->edge_slots() == cs.terrain->edge_count());
      cs.near_tri = near_triangles(*cs.terrain);
    }
    fill_buckets(cs, win, W, s);
  }

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

  std::vector<u64> col_crossings(W, 0), col_hits(W, 0);
  par::fan_items(W, [&](std::size_t c) {
    ColumnScratch sc;
    sc.sub_ids.assign(std::size_t{s} * H * s, kNoTriangle);
    sc.sub_depths.assign(std::size_t{s} * H * s, 0.0);
    u64 crossings = 0, hits = 0;
    for (u32 k = 0; k < s; ++k) {
      const u32 i = static_cast<u32>(c) * s + k;
      const ColumnSet* owner = nullptr;
      for (const ColumnSet& cs : sets) {
        if (cs.sub_lo <= i && i < cs.sub_hi) {
          owner = &cs;
          break;
        }
      }
      if (owner != nullptr && owner->terrain != nullptr) {
        const std::size_t hs = std::size_t{H} * s;
        scan_sub_column(*owner, win, W, H, s, i, sc.crossings,
                        std::span(sc.sub_ids).subspan(k * hs, hs),
                        std::span(sc.sub_depths).subspan(k * hs, hs), crossings, hits);
      }
    }
    detail::aggregate_column(static_cast<u32>(c), W, H, s, sc.sub_ids, sc.sub_depths, out.ids,
                             out.depth, out.coverage);
    col_crossings[c] = crossings;
    col_hits[c] = hits;
  });
  for (u32 c = 0; c < W; ++c) {
    out.crossings += col_crossings[c];
    out.hit_samples += col_hits[c];
  }
  return out;
}

}  // namespace

void validate(const RasterOptions& opt) {
  if (opt.width < 1 || opt.height < 1 || opt.supersample < 1) {
    throw std::invalid_argument("raster: width, height and supersample must be >= 1");
  }
  if (u64{opt.width} * opt.supersample > kMaxRasterAxis ||
      u64{opt.height} * opt.supersample > kMaxRasterAxis) {
    throw std::invalid_argument(
        "raster: width and height times supersample must be <= kMaxRasterAxis");
  }
  if (opt.window) check_window(*opt.window);
}

ImageWindow default_window(const Terrain& t) {
  ImageWindow w;
  w.y_lo = t.min_y();
  w.y_hi = t.max_y();
  if (t.vertex_count() > 0) {
    w.z_lo = w.z_hi = t.vertex(0).z;
    for (const Vertex3& v : t.vertices()) {
      w.z_lo = std::min(w.z_lo, v.z);
      w.z_hi = std::max(w.z_hi, v.z);
    }
  }
  // Odd extents: sample ordinates get an odd numerator over an even
  // denominator and can never be integers, so no column or row ever runs
  // through a vertex or along a sliver.
  if ((w.y_hi - w.y_lo) % 2 == 0) w.y_hi += 1;
  if ((w.z_hi - w.z_lo) % 2 == 0) w.z_hi += 1;
  return w;
}

PixelBudget pixel_budget(const Terrain& t, const RasterOptions& opt) {
  validate(opt);
  const ImageWindow win = opt.window ? *opt.window : default_window(t);
  return PixelBudget{win.y_lo, win.y_hi, opt.width * opt.supersample};
}

QY sample_y(const ImageWindow& w, u32 width, u32 supersample, u32 i) {
  const i64 den = 2 * i64{width} * supersample;
  const i128 num = i128{w.y_lo} * den + i128{2 * i64{i} + 1} * (w.y_hi - w.y_lo);
  return QY(num, den);
}

QY sample_z(const ImageWindow& w, u32 height, u32 supersample, u32 j) {
  const i64 den = 2 * i64{height} * supersample;
  const i128 num = i128{w.z_hi} * den - i128{2 * i64{j} + 1} * (w.z_hi - w.z_lo);
  return QY(num, den);
}

std::optional<double> plane_depth(const Terrain& t, u32 tri, const QY& y, const QY& z) {
  const Triangle& tr = t.triangles()[tri];
  const Vertex3 &p0 = t.vertex(tr.a), &p1 = t.vertex(tr.b), &p2 = t.vertex(tr.c);
  const i128 ux = p1.x - p0.x, uy = p1.y - p0.y, uz = p1.z - p0.z;
  const i128 vx = p2.x - p0.x, vy = p2.y - p0.y, vz = p2.z - p0.z;
  const i128 a = uy * vz - uz * vy;  // plane normal (a, b, c)
  const i128 b = uz * vx - ux * vz;
  const i128 c = ux * vy - uy * vx;
  if (a == 0) return std::nullopt;  // plane parallel to the viewing axis
  // x = p0.x + (-b*(y - p0.y) - c*(z - p0.z)) / a, over denominator
  // a * q_y * q_z; peak ~2^95 / 2^71 under the kMaxRasterAxis cap.
  const i128 dy = y.p - mul128(y.q, p0.y);  // (y - p0.y) * q_y
  const i128 dz = z.p - mul128(z.q, p0.z);
  const i128 num = -mul128(mul128(b, dy), z.q) - mul128(mul128(c, dz), y.q);
  const i128 den = mul128(mul128(a, y.q), z.q);
  return static_cast<double>(p0.x) + static_cast<double>(num) / static_cast<double>(den);
}

ImageRaster rasterize(const Terrain& t, const VisibilityMap& m, const RasterOptions& opt) {
  validate(opt);
  require_map_of(t, m, "rasterize");
  const ImageWindow win = opt.window ? *opt.window : default_window(t);
  std::vector<ColumnSet> sets(1);
  sets[0].terrain = &t;
  sets[0].map = &m;
  sets[0].sub_lo = 0;
  sets[0].sub_hi = opt.width * opt.supersample;
  return rasterize_impl(std::move(sets), opt, win);
}

ImageRaster rasterize_sharded(const shard::ShardPlan& plan,
                              std::span<const VisibilityMap* const> slab_maps,
                              const RasterOptions& opt) {
  validate(opt);
  THSR_CHECK(plan.source != nullptr);
  if (slab_maps.size() != plan.slabs.size()) {
    throw std::invalid_argument("rasterize_sharded: one map per slab of the plan is required");
  }
  for (std::size_t s = 0; s < slab_maps.size(); ++s) {
    if (slab_maps[s] != nullptr) {
      require_map_of(plan.slabs[s].terrain, *slab_maps[s], "rasterize_sharded");
    }
  }
  const ImageWindow win = opt.window ? *opt.window : default_window(*plan.source);
  // The slab owning sub-column i is the unique s with cuts[s] <= y_i <
  // cuts[s+1] (last window closed) — the shard owner rule over the sample
  // ordinates. Columns outside [cuts.front(), cuts.back()] have no owner
  // and stay background, exactly as no visible piece reaches them
  // monolithically.
  std::vector<ColumnSet> sets;
  const std::size_t S = plan.slabs.size();
  for (std::size_t s = 0; s < S; ++s) {
    const u32 lo = first_sub(win, opt.width, opt.supersample, plan.cuts[s],
                             /*strictly_greater=*/false);
    const u32 hi = s + 1 < S ? first_sub(win, opt.width, opt.supersample, plan.cuts[s + 1],
                                         /*strictly_greater=*/false)
                             : first_sub(win, opt.width, opt.supersample, plan.cuts[s + 1],
                                         /*strictly_greater=*/true);
    if (lo >= hi) continue;  // no sample ordinate falls in this slab
    ColumnSet cs;
    if (slab_maps[s] != nullptr) {
      cs.terrain = &plan.slabs[s].terrain;
      cs.map = slab_maps[s];
      cs.tri_map = &plan.slabs[s].global_tri;
    }
    cs.sub_lo = lo;
    cs.sub_hi = hi;
    sets.push_back(std::move(cs));
  }
  return rasterize_impl(std::move(sets), opt, win);
}

u32 first_sub(const ImageWindow& w, u32 width, u32 supersample, i64 cut, bool strictly_greater) {
  u32 lo = 0, hi = width * supersample;
  while (lo < hi) {
    const u32 mid = lo + (hi - lo) / 2;
    const int c = cmp(sample_y(w, width, supersample, mid), cut);
    if (c < 0 || (strictly_greater && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BandScan scan_band(const Terrain* t, const VisibilityMap* m, const std::vector<u32>* tri_map,
                   const ImageWindow& win, const RasterOptions& opt, u32 sub_lo, u32 sub_hi) {
  validate(opt);
  check_window(win);
  if (sub_lo > sub_hi || sub_hi > opt.width * opt.supersample) {
    throw std::invalid_argument("scan_band: [sub_lo, sub_hi) is not a band of the image");
  }
  const u32 H = opt.height, s = opt.supersample;
  const std::size_t hs = std::size_t{H} * s;

  BandScan out;
  out.sub_lo = sub_lo;
  out.sub_hi = sub_hi;
  const u32 n = sub_hi - sub_lo;
  out.ids.assign(std::size_t{n} * hs, kNoTriangle);
  out.depths.assign(std::size_t{n} * hs, 0.0);
  if (t == nullptr || n == 0) return out;  // background band
  if (m == nullptr) throw std::invalid_argument("scan_band: a terrain needs its map");
  require_map_of(*t, *m, "scan_band");

  const par::ScopedConfig cfg(opt.threads, opt.backend);

  ColumnSet cs;
  cs.terrain = t;
  cs.map = m;
  cs.tri_map = tri_map;
  cs.sub_lo = sub_lo;
  cs.sub_hi = sub_hi;
  cs.near_tri = near_triangles(*t);
  fill_buckets(cs, win, opt.width, s);

  std::vector<u64> sub_crossings(n, 0), sub_hits(n, 0);
  par::fan_items(n, [&](std::size_t k) {
    std::vector<Crossing> cr;
    scan_sub_column(cs, win, opt.width, H, s, sub_lo + static_cast<u32>(k), cr,
                    std::span(out.ids).subspan(k * hs, hs),
                    std::span(out.depths).subspan(k * hs, hs), sub_crossings[k], sub_hits[k]);
  });
  for (u32 k = 0; k < n; ++k) {
    out.crossings += sub_crossings[k];
    out.hit_samples += sub_hits[k];
  }
  return out;
}

namespace detail {

void aggregate_column(u32 c, u32 width, u32 height, u32 supersample,
                      std::span<const u32> sub_ids, std::span<const double> sub_depths,
                      std::span<u32> ids, std::span<float> depth, std::span<float> coverage) {
  const u32 s = supersample;
  const u32 hs = height * s;
  const u32 per_pixel = s * s;
  for (u32 r = 0; r < height; ++r) {
    u32 hits = 0;
    u32 win_id = kNoTriangle;
    u32 win_count = 0;
    for (u32 k = 0; k < s; ++k) {
      for (u32 j = r * s; j < (r + 1) * s; ++j) {
        const u32 id = sub_ids[std::size_t{k} * hs + j];
        if (id == kNoTriangle) continue;
        ++hits;
        u32 cnt = 0;
        for (u32 k2 = 0; k2 < s; ++k2) {
          for (u32 j2 = r * s; j2 < (r + 1) * s; ++j2) {
            cnt += sub_ids[std::size_t{k2} * hs + j2] == id;
          }
        }
        if (cnt > win_count || (cnt == win_count && id < win_id)) {
          win_count = cnt;
          win_id = id;
        }
      }
    }
    double dsum = 0.0;
    u32 dn = 0;
    if (win_id != kNoTriangle) {
      for (u32 k = 0; k < s; ++k) {
        for (u32 j = r * s; j < (r + 1) * s; ++j) {
          if (sub_ids[std::size_t{k} * hs + j] == win_id) {
            dsum += sub_depths[std::size_t{k} * hs + j];
            ++dn;
          }
        }
      }
    }
    const std::size_t px = std::size_t{r} * width + c;
    ids[px] = win_id;
    depth[px] = dn > 0 ? static_cast<float>(dsum / dn) : 0.0f;
    coverage[px] = static_cast<float>(hits) / static_cast<float>(per_pixel);
  }
}

}  // namespace detail

}  // namespace thsr::raster

#include "shard/shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/check.hpp"

namespace thsr::shard {
namespace {

/// True when `v` is one of the integer cut ordinates.
bool is_cut(const QY& v, std::span<const i64> cuts) {
  if (!v.is_integer()) return false;
  const auto c = static_cast<i64>(v.p / v.q);
  return std::binary_search(cuts.begin(), cuts.end(), c);
}

/// Translate a slab-local profile-edge id (crossing/blocking provenance)
/// to the source terrain's edge id.
u32 remap_edge(u32 id, const std::vector<u32>& global_edge) {
  if (id == kNoEdge) return kNoEdge;
  THSR_DCHECK(id < global_edge.size());
  return global_edge[id];
}

/// Append `p` to `acc`, merging with the previous piece when the two meet
/// exactly at a cut ordinate (the junction a slab split introduced).
void append_coalescing(std::vector<VisiblePiece>& acc, VisiblePiece p,
                       std::span<const i64> cuts) {
  if (!acc.empty() && acc.back().y1 == p.y0 && is_cut(p.y0, cuts)) {
    acc.back().y1 = p.y1;
    acc.back().k1 = p.k1;
    acc.back().other1 = p.other1;
    return;
  }
  THSR_DCHECK(acc.empty() || acc.back().y1 <= p.y0);
  acc.push_back(std::move(p));
}

}  // namespace

u32 ShardPlan::owner_slab(i64 y) const {
  THSR_DCHECK(!slabs.empty());
  const auto it = std::upper_bound(cuts.begin(), cuts.end(), y);
  if (it == cuts.begin()) return 0;
  const auto i = static_cast<std::size_t>(it - cuts.begin()) - 1;
  return static_cast<u32>(std::min(i, slabs.size() - 1));
}

ShardPlan decompose(const Terrain& t, u32 slabs) {
  if (slabs == 0) throw std::invalid_argument("decompose: slabs must be >= 1");
  ShardPlan plan;
  plan.source = &t;

  // Uniformly spaced integer cuts spanning [min_y, max_y]. Exact division
  // is not required — any non-decreasing integer cut sequence with these
  // endpoints is a valid plan; uniform keeps slab sizes balanced on the
  // generators' lattices.
  const i64 span = t.max_y() - t.min_y();
  plan.cuts.resize(static_cast<std::size_t>(slabs) + 1);
  for (u32 i = 0; i <= slabs; ++i) {
    plan.cuts[i] = t.min_y() + static_cast<i64>(i128{span} * i / slabs);
  }

  const std::span<const Vertex3> verts = t.vertices();
  const std::span<const Triangle> tris = t.triangles();

  plan.slabs.resize(slabs);
  for (u32 s = 0; s < slabs; ++s) {
    SlabTerrain& slab = plan.slabs[s];
    slab.y_lo = plan.cuts[s];
    slab.y_hi = plan.cuts[s + 1];

    // Triangles whose closed y-span meets the closed window: these carry
    // every edge that can participate in visibility anywhere in the
    // window, including at its boundary ordinates.
    std::vector<u32> tri_ids;
    for (u32 ti = 0; ti < tris.size(); ++ti) {
      const Triangle& tr = tris[ti];
      const i64 ya = verts[tr.a].y, yb = verts[tr.b].y, yc = verts[tr.c].y;
      const i64 lo = std::min({ya, yb, yc}), hi = std::max({ya, yb, yc});
      if (hi >= slab.y_lo && lo <= slab.y_hi) tri_ids.push_back(ti);
    }

    // Renumber the referenced vertices (sorted by source id, so the slab
    // terrain is deterministic in the source alone).
    std::vector<u32> vids;
    vids.reserve(tri_ids.size() * 3);
    for (const u32 ti : tri_ids) {
      vids.push_back(tris[ti].a);
      vids.push_back(tris[ti].b);
      vids.push_back(tris[ti].c);
    }
    std::sort(vids.begin(), vids.end());
    vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
    const auto local_of = [&](u32 gv) {
      return static_cast<u32>(std::lower_bound(vids.begin(), vids.end(), gv) - vids.begin());
    };

    std::vector<Vertex3> local_verts;
    local_verts.reserve(vids.size());
    for (const u32 gv : vids) local_verts.push_back(verts[gv]);
    std::vector<Triangle> local_tris;
    local_tris.reserve(tri_ids.size());
    for (const u32 ti : tri_ids) {
      local_tris.push_back(
          {local_of(tris[ti].a), local_of(tris[ti].b), local_of(tris[ti].c)});
    }
    slab.terrain = Terrain::from_triangles(std::move(local_verts), std::move(local_tris));
    // from_triangles preserves triangle order, so tri_ids *is* the
    // slab-local -> source triangle map (consumed by raster/raster.hpp).
    slab.global_tri = std::move(tri_ids);

    // Every slab edge is a side of a slab triangle, and side k of a slab
    // triangle is side k of its source triangle (same vertex order).
    slab.global_edge.assign(slab.terrain.edge_count(), 0);
    for (u32 ti = 0; ti < slab.global_tri.size(); ++ti) {
      const Terrain::TriEdges& local = slab.terrain.tri_edges(ti);
      const Terrain::TriEdges& source = t.tri_edges(slab.global_tri[ti]);
      for (int k = 0; k < 3; ++k) slab.global_edge[local[k]] = source[k];
    }
    plan.slab_edges_total += slab.terrain.edge_count();
  }
  return plan;
}

VisibilityMap stitch(const ShardPlan& plan, std::span<const VisibilityMap* const> slab_maps) {
  THSR_CHECK(plan.source != nullptr && slab_maps.size() == plan.slabs.size());
  const std::size_t n = plan.source->edge_count();
  const std::span<const i64> cuts = plan.cuts;

  // Accumulate per-edge piece lists first: slabs are visited in y order,
  // so each edge's clipped pieces arrive in increasing y and junctions at
  // cut ordinates can be coalesced on the fly.
  std::vector<std::vector<VisiblePiece>> acc(n);
  for (std::size_t s = 0; s < plan.slabs.size(); ++s) {
    const VisibilityMap* m = slab_maps[s];
    if (m == nullptr) continue;
    const SlabTerrain& slab = plan.slabs[s];
    const QY w_lo = QY::of(slab.y_lo), w_hi = QY::of(slab.y_hi);
    THSR_CHECK(m->edge_slots() == slab.terrain.edge_count());
    for (u32 le = 0; le < slab.terrain.edge_count(); ++le) {
      const u32 ge = slab.global_edge[le];
      for (const VisiblePiece& p : m->pieces(le)) {
        // The slab solved the full edge; only the window restriction is
        // authoritative (outside it, occluders live in other slabs).
        VisiblePiece q = p;
        q.other0 = remap_edge(p.other0, slab.global_edge);
        q.other1 = remap_edge(p.other1, slab.global_edge);
        if (q.y0 < w_lo) {
          q.y0 = w_lo;
          q.k0 = EndpointKind::Break;
          q.other0 = kNoEdge;
        }
        if (w_hi < q.y1) {
          q.y1 = w_hi;
          q.k1 = EndpointKind::Break;
          q.other1 = kNoEdge;
        }
        if (!(q.y0 < q.y1)) continue;  // outside the window (or clipped to a point)
        append_coalescing(acc[ge], std::move(q), cuts);
      }
    }
  }

  VisibilityMap out(n);
  for (u32 e = 0; e < n; ++e) {
    for (VisiblePiece& p : acc[e]) out.add_piece(e, std::move(p));
  }

  // Sliver verdicts from each sliver's owner slab (exactly one, so
  // boundary slivers are reported once).
  for (std::size_t s = 0; s < plan.slabs.size(); ++s) {
    const VisibilityMap* m = slab_maps[s];
    if (m == nullptr) continue;
    const SlabTerrain& slab = plan.slabs[s];
    for (u32 le = 0; le < slab.terrain.edge_count(); ++le) {
      if (!slab.terrain.is_sliver(le)) continue;
      if (plan.owner_slab(slab.terrain.sliver(le).y) != s) continue;
      const auto& sv = m->sliver(le);
      if (!sv) continue;
      SliverVisibility g = *sv;
      g.blocking_before = remap_edge(g.blocking_before, slab.global_edge);
      g.blocking_after = remap_edge(g.blocking_after, slab.global_edge);
      out.set_sliver(slab.global_edge[le], g);
    }
  }
  return out;
}

VisibilityMap coalesce_at_cuts(const VisibilityMap& map, std::span<const i64> cuts) {
  VisibilityMap out(map.edge_slots());
  for (u32 e = 0; e < map.edge_slots(); ++e) {
    std::vector<VisiblePiece> acc;
    for (const VisiblePiece& p : map.pieces(e)) append_coalescing(acc, p, cuts);
    for (VisiblePiece& p : acc) out.add_piece(e, std::move(p));
    if (const auto& sv = map.sliver(e)) out.set_sliver(e, *sv);
  }
  return out;
}

}  // namespace thsr::shard

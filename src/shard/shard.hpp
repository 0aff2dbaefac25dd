#pragma once
/// \file shard.hpp
/// Y-slab decomposition of a terrain into independently solvable
/// subproblems, and the stitch that reassembles per-slab visibility maps
/// into the global one (DESIGN.md section 1.7).
///
/// The viewer sits at x = +infinity, so edge f can occlude a point of edge
/// e only at image-plane ordinates y covered by *both* edges — occlusion
/// never crosses an ordinate neither edge spans. Cutting the y-range into S
/// slabs therefore yields S independent subproblems: slab i consists of
/// every triangle whose y-span meets the closed window [cuts[i],
/// cuts[i+1]], and the visibility map of that sub-terrain, restricted to
/// the window, equals the global map restricted to the window.
///
/// Edges crossing a slab line are *replicated* into each slab they touch
/// and clipped logically, never geometrically: the cut ordinates are
/// integers on the input lattice, but the crossing point (c, z(c)) of an
/// edge with the line y = c has a rational z that the integer-input
/// contract (|coordinate| <= 2^21, DESIGN.md section 5) cannot carry as a
/// vertex. The clip therefore happens in the only representation where the
/// cut must be materialized — the output pieces, whose endpoints are
/// first-class rationals — at the exactly representable abscissa QY(c).
/// The cost of replication is the duplication factor reported by the plan
/// (sum of per-slab edge counts over the global edge count), which
/// bench_ci gates the sharded work bound against.
///
/// Slivers (dy == 0 edges) ride along inside whichever slabs contain their
/// ordinate and are solved by the existing sliver path (DESIGN.md section
/// 4.5); the stitch takes each sliver's verdict from its *owner* slab — the
/// unique slab whose half-open window [cuts[i], cuts[i+1]) contains the
/// ordinate (the last slab's window is closed) — so boundary slivers are
/// reported exactly once.

#include <span>
#include <vector>

#include "core/visibility.hpp"
#include "terrain/terrain.hpp"

namespace thsr::shard {

/// Slack on the duplication-bound work gate shared by bench_ci's shard/*
/// cases and tests/test_shard.cpp: a sharded solve's summed counted work
/// must stay within duplication_factor() * kShardWorkSlack of the
/// monolithic solve. The slack forgives the window overhang (replicated
/// edges are solved over their full spans) and per-slab preparation.
inline constexpr double kShardWorkSlack = 1.25;

/// One y-slab's subproblem: the sub-terrain of all triangles whose y-span
/// meets the closed window [y_lo, y_hi], with vertices renumbered locally.
struct SlabTerrain {
  Terrain terrain;
  std::vector<u32> global_edge;  ///< slab-local edge id -> source edge id
  std::vector<u32> global_tri;   ///< slab-local triangle id -> source triangle id
  i64 y_lo{0}, y_hi{0};          ///< closed solve window
};

/// The decomposition of one terrain into S y-slabs.
struct ShardPlan {
  const Terrain* source{nullptr};
  std::vector<i64> cuts;          ///< S+1 integer ordinates spanning [min_y, max_y]
  std::vector<SlabTerrain> slabs; ///< size S; a slab may be empty (0 triangles)
  u64 slab_edges_total{0};        ///< sum of per-slab edge counts

  /// Replication cost of the plan: sum of per-slab edge counts over the
  /// source edge count (>= 1; exactly 1 when no edge meets two slabs).
  /// The sharded solve's counted work is gated against this bound (times
  /// kShardWorkSlack) by bench_ci and tests/test_shard.cpp.
  double duplication_factor() const {
    const auto n = static_cast<double>(source->edge_count());
    return n == 0 ? 1.0 : static_cast<double>(slab_edges_total) / n;
  }

  /// The slab owning ordinate `y` for sliver reporting: the unique i with
  /// cuts[i] <= y < cuts[i+1] (last window closed). Requires a non-empty
  /// plan and min_y <= y <= max_y.
  u32 owner_slab(i64 y) const;
};

/// Cut `t` into `slabs` y-slabs at uniformly spaced integer ordinates.
/// Every triangle lands in each slab whose closed window its y-span meets,
/// so each slab's sub-terrain contains every edge that can occlude — or be
/// visible — anywhere in the window, including its endpoints. Slabs that
/// no triangle meets (a y-gap in the terrain, or more slabs than lattice
/// lines) come out empty and solve trivially. Slab edges map to source
/// edges through the two terrains' `tri_edges`.
/// \throws std::invalid_argument when slabs == 0.
ShardPlan decompose(const Terrain& t, u32 slabs);

/// Reassemble per-slab visibility maps into the source terrain's map.
/// `slab_maps[i]` is slab i's map (indexed by slab-local edge ids) or
/// nullptr for an empty/unsolved slab. Pieces are clipped to each slab's
/// window at the integer cut ordinates, translated to source edge ids
/// (including crossing/blocking provenance), concatenated in slab order,
/// and coalesced wherever two pieces of one edge meet exactly at a cut —
/// undoing the split the decomposition introduced. Sliver verdicts come
/// from each sliver's owner slab. The result is piece-for-piece identical
/// to the monolithic solve after the monolithic map is also coalesced at
/// the cut lines (coalesce_at_cuts); tests/test_shard.cpp asserts this
/// across algorithms, oracles, and backends.
VisibilityMap stitch(const ShardPlan& plan, std::span<const VisibilityMap* const> slab_maps);

/// Canonicalize `map` with respect to the cut lines: merge consecutive
/// pieces of an edge that touch exactly at a cut ordinate (a monolithic
/// solve may legitimately emit two abutting pieces there; the stitched map
/// cannot distinguish that from a decomposition split, so equality is
/// asserted modulo this coalescing). Sliver verdicts are copied unchanged.
VisibilityMap coalesce_at_cuts(const VisibilityMap& map, std::span<const i64> cuts);

}  // namespace thsr::shard

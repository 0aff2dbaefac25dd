#pragma once
/// \file depth_order.hpp
/// Front-to-back ordering of terrain edges (paper section 3, step 1).
///
/// Edge e is *in front of* f (e ≺ f) when some viewing ray meets e first;
/// equivalently, at some common ordinate y the ground projections satisfy
/// x_e(y) > x_f(y). Because ground projections of a terrain never properly
/// cross, the sign is constant over the common span, ≺ is a partial order,
/// and disjoint plane segments always admit a depth order. The paper obtains
/// a linear extension from the Tamassia–Vitter separator tree (Fact 1); this
/// repo derives it from the terrain's own triangles (DESIGN.md section 4.2):
///
/// 1. two *triangle-local* arcs per face — its long side (lowest to highest
///    vertex) against each short side, directed by one exact ground
///    orientation of the middle vertex;
/// 2. a plane sweep over the *boundary* edges only (edges with one face),
///    which orders edges across NODATA holes, ragged outlines and slab cuts;
/// 3. a deterministic Kahn topological sort (ties break by smallest edge
///    id) over a CSR adjacency.
///
/// Inside the domain, two edges that are x-adjacent at some y bound one
/// triangle, so both arc sets have the same transitive closure as the
/// x-adjacency arcs of a sweep over every edge — and min-id Kahn's output
/// depends only on that closure, so the order is exactly the full sweep's.
/// A terrain with any sliver edge runs the full sweep (`sweep_depth_order`),
/// which is also the oracle tests/test_order.cpp compares against. Any
/// linear extension yields the identical visibility map; tests also check
/// orders against the O(n^2) pairwise validator below.
///
/// Degenerate "sliver" edges (dy == 0) are ordered by a point insertion at
/// their ordinate: the nearest strictly-front neighbour precedes them, the
/// nearest strictly-behind neighbour follows them. Sliver-on-sliver
/// occlusion at an identical ordinate is outside the general-position
/// contract; the convention (resolve slivers against the non-sliver profile
/// only) is shared by all algorithms and pinned in tests/test_degenerate.cpp.

#include <vector>

#include "terrain/terrain.hpp"

namespace thsr {

struct DepthOrder {
  std::vector<u32> order;  ///< edge ids, front (closest to viewer) first
  std::vector<u32> rank;   ///< rank[edge id] = position in `order`
  /// Distinct arcs the topological sort consumed: two triangle-local arcs
  /// per face plus the boundary sweep's, or the full sweep's arcs on a
  /// terrain with slivers.
  u64 constraints{0};
};

/// Compute a front-to-back linear extension for all edges of `t`.
/// Deterministic: ties in the topological sort break by smallest edge id,
/// and the result equals `sweep_depth_order(t)`. O(n log n) in the edge
/// count for the sort's heap, plus the boundary sweep.
DepthOrder compute_depth_order(const Terrain& t);

/// The same order from a plane sweep over every edge, recording x-adjacency
/// arcs at insertion and removal events: the path for terrains with sliver
/// edges, and the test oracle for `compute_depth_order`. O(n log n).
DepthOrder sweep_depth_order(const Terrain& t);

/// Exhaustive pairwise check (test helper): true iff `order` ranks every
/// strictly-comparable pair front-first. Examines at most `pair_limit`
/// pairs; returns true vacuously beyond the budget.
bool validate_depth_order(const Terrain& t, std::span<const u32> order,
                          std::size_t pair_limit = 4'000'000);

}  // namespace thsr

#pragma once
/// \file detail.hpp
/// Shared implementation context for the HSR algorithms (internal header).

#include <optional>

#include "cg/profile_query.hpp"
#include "core/hsr.hpp"
#include "separator/depth_order.hpp"
#include "separator/separator_tree.hpp"
#include "support/stopwatch.hpp"

namespace thsr::detail {

/// Precomputed per-terrain context shared by all algorithms and cached by
/// HsrEngine across solves: the image-plane segment table (dummy entries
/// for slivers, which are never queried as segments), the front-to-back
/// depth order, and the PCT skeleton over it (a pure function of the edge
/// count). Everything here depends only on the terrain — never on the
/// algorithm, oracle, backend, or thread count of a particular solve.
struct HsrContext {
  const Terrain* terrain{nullptr};
  std::vector<Seg2> segs;
  std::vector<unsigned char> is_sliver;
  DepthOrder order;
  std::optional<SeparatorTree> pct;  ///< disengaged only for an edgeless terrain
  u64 n_slivers{0};
};

HsrContext make_context(const Terrain& t);

/// Per-thread scratch for phase-2 node processing, reused across nodes,
/// layers, and solves: leaf-walk event buffers, the materialized-scan
/// oracle's flattened profile, and the phase-2 merge's per-piece event
/// lists and splice-run accumulator.
struct PhaseScratch {
  std::vector<TransitionEvent> events;
  std::vector<PieceData> flat;
  std::vector<std::vector<TransitionEvent>> merge_events;
  std::vector<int> merge_initial;
  std::vector<PieceData> merge_content;
};

/// Engine-owned reusable memory for one solve at a time. A fresh Workspace
/// is equivalent to the function-local buffers the algorithms used to
/// allocate per call; a warm one hands back the previous solve's arena
/// blocks and vector capacities, which is where the amortized-solve win of
/// the session engine comes from (bench micro_engine_reuse). Never shared
/// between concurrent solves — every solve leases its own from the
/// engine's pool.
struct Workspace {
  PArena arena;                        ///< persistent nodes; reset() per solve
  std::vector<Envelope> env;           ///< phase-1 intermediate envelopes
  std::vector<ptreap::Ref> inherited;  ///< phase-2 inherited versions
  std::vector<unsigned char> used;     ///< phase-1 consumer marks
  PhaseScratch scratch;                ///< serial-path phase-2 scratch
  VisibilityMap::Storage map_storage;  ///< recycled output-piece buffers
};

/// Normalize a profile-edge id for output provenance (floor => none).
inline u32 provenance(u32 profile_edge) noexcept {
  return profile_edge == kFloorEdge ? kNoEdge : profile_edge;
}

/// Convert a transition walk over [a, b] into visible pieces of `edge`.
/// With `prune` (a bounded solve), pieces whose closed extent is sample-free
/// are dropped — they cover no raster sample (DESIGN.md section 1.12).
void emit_visible(u32 edge, const QY& a, const QY& b, int initial,
                  std::span<const TransitionEvent> events, VisibilityMap& map,
                  const BoundedPrune* prune = nullptr);

VisibilityMap run_reference(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                            const BoundedPrune* prune);
VisibilityMap run_sequential(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                             const BoundedPrune* prune);
VisibilityMap run_parallel(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                           bool layer_stats, Phase2Oracle oracle, const BoundedPrune* prune);

}  // namespace thsr::detail

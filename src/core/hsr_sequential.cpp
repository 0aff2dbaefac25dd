/// \file hsr_sequential.cpp
/// The Reif–Sen-style sequential baseline (the paper's reference [19]/[20]):
/// edges are processed one by one in depth order; the current profile lives
/// in the persistent treap and each edge is clipped against it with
/// output-sensitive oracle walks (O((1 + k_e) polylog) per edge), then its
/// visible runs are spliced into the profile. Total O((n + k) polylog n) —
/// the work bound the parallel algorithm's Remark is measured against
/// (bench table_e4_work_ratio).
///
/// No version is read after the next splice, so every splice runs in the
/// treap's single-version mode: the nodes it supersedes return to the
/// arena's free list, and the solve holds only its live profile (one arena
/// block on every g96 family) while building and counting exactly the
/// nodes a persistent run would.

#include "core/detail.hpp"

namespace thsr::detail {

VisibilityMap run_sequential(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                             const BoundedPrune* prune) {
  const Terrain& t = *ctx.terrain;
  VisibilityMap map{t.edge_count(), std::move(ws.map_storage)};
  PArena& arena = ws.arena;
  const u64 arena_base = arena.node_count();
  ptreap::Ref profile = ptreap::make_floor(arena);

  const Stopwatch phase;
  std::vector<TransitionEvent>& events = ws.scratch.events;
  for (const u32 e : ctx.order.order) {
    if (ctx.is_sliver[e]) {
      const SliverInfo sv = t.sliver(e);
      SliverVisibility out;
      out.visible = strictly_above_at(profile, QY::of(sv.y), sv.z_hi, ctx.segs);
      if (out.visible) {
        const QY y = QY::of(sv.y);
        if (const PieceData* p = ptreap::piece_at(profile, y, Side::Before)) {
          out.blocking_before = provenance(p->edge);
        }
        if (const PieceData* p = ptreap::piece_at(profile, y, Side::After)) {
          out.blocking_after = provenance(p->edge);
        }
      }
      map.set_sliver(e, out);
      continue;
    }

    const Seg2& s = ctx.segs[e];
    const QY a = QY::of(s.u0), b = QY::of(s.u1);
    events.clear();
    const int initial = walk_transitions(profile, s, a, b, ctx.segs, events);
    emit_visible(e, a, b, initial, events, map, prune);

    // Splice the visible (strictly-above) runs: profile := env(profile, s).
    // Bounded solve: a sample-free run changes the profile only where no
    // sample ordinate can observe it — skip the splice and every persistent
    // node it would have allocated (DESIGN.md section 1.12).
    int state = initial;
    QY run0 = a;
    const auto splice = [&](const QY& from, const QY& to) {
      if (prune != nullptr && prune->sample_free(from, to)) return;
      const PieceData piece{from, to, e};
      profile = ptreap::replace_range(arena, profile, from, to, std::span(&piece, 1), ctx.segs,
                                      ptreap::Mode::SingleVersion);
    };
    for (const TransitionEvent& ev : events) {
      if (ev.new_state == +1 && state != +1) {
        run0 = ev.y;
      } else if (ev.new_state != +1 && state == +1) {
        splice(run0, ev.y);
      }
      state = ev.new_state;
    }
    if (state == +1) splice(run0, b);
  }
  stats.phase2_s = phase.seconds();
  stats.treap_nodes = arena.node_count() - arena_base;
  return map;
}

}  // namespace thsr::detail

/// \file hsr_parallel.cpp
/// The paper's algorithm (sections 2.1 and 3).
///
/// Phase 1 — intermediate profiles: bottom-up over the PCT, the upper
/// envelope of every node's edge range is built by exact merges of its
/// children's envelopes (Lemma 3.1). Parallel across nodes of a layer; the
/// few large merges near the root run strip-parallel instead.
///
/// Phase 2 — actual profiles: top-down, layer by layer (the systolic
/// parallel-prefix schedule). Node v inherits the persistent prefix profile
/// P_{lo(v)-1}; its left child inherits the same version (pure sharing), and
/// its right child inherits merge(P, Π_left): the pieces of the left child's
/// intermediate envelope that are strictly above P, spliced in as a new
/// persistent version. Merges against a version are read-only, so stage 1 of
/// every merge (the oracle walks) parallelizes across the envelope's pieces
/// (CREW); versions for different nodes of a layer are built concurrently.
/// At a leaf, the edge is clipped against its inherited version P_{i-1} and
/// its visible runs are emitted — no splice is needed below leaves.
///
/// Work: O((n·alpha(n) + k) polylog n) oracle steps and O(log) path copies
/// per splice (measured in benches E1/E4/E8); span: O(log n) layers with
/// polylog per layer given enough workers (Theorem 3.1 modulo the oracle
/// substitution of DESIGN.md section 1).
///
/// All scratch lives in the engine-owned Workspace (serial paths) or in
/// per-thread PhaseScratch instances (parallel paths), so a warm engine
/// solve reuses the previous solve's buffers and arena blocks.

#include <atomic>

#include "core/detail.hpp"
#include "envelope/build.hpp"
#include "parallel/backend.hpp"
#include "separator/separator_tree.hpp"

namespace thsr::detail {
namespace {

// Phase-2 merge: new version = env(P, pi) with pi's strictly-above runs
// spliced in. Returns the new version; counts splices into `splices`.
// With Phase2Oracle::MaterializedScan the inherited version is flattened
// once per node and queried by linear scans (the ablation path).
ptreap::Ref merge_profile(PArena& arena, ptreap::Ref P, const Envelope& pi,
                          const HsrContext& ctx, std::atomic<u64>& splices,
                          Phase2Oracle oracle, PhaseScratch& ps_scratch,
                          const BoundedPrune* prune) {
  if (pi.empty()) return P;
  const auto ps = pi.pieces();
  const auto m = static_cast<i64>(ps.size());

  // Stage 1: oracle walks against the immutable inherited version.
  std::vector<PieceData>& flat = ps_scratch.flat;
  flat.clear();
  if (oracle == Phase2Oracle::MaterializedScan) {
    flat.reserve(ptreap::count(P));
    ptreap::collect(P, flat);
  }
  if (ps_scratch.merge_events.size() < ps.size()) ps_scratch.merge_events.resize(ps.size());
  std::span<std::vector<TransitionEvent>> events{ps_scratch.merge_events};
  ps_scratch.merge_initial.resize(ps.size());
  std::span<int> initial{ps_scratch.merge_initial};
  par::parallel_for(
      m,
      [&](i64 j) {
        const auto ju = static_cast<std::size_t>(j);
        const EnvPiece& p = ps[ju];
        events[ju].clear();
        initial[ju] =
            oracle == Phase2Oracle::MaterializedScan
                ? walk_transitions_scan(flat, ctx.segs[p.edge], p.y0, p.y1, ctx.segs, events[ju])
                : walk_transitions(P, ctx.segs[p.edge], p.y0, p.y1, ctx.segs, events[ju]);
      },
      /*grain=*/32);

  // Stages 2+3: stitch maximal above-runs across pieces and splice each as
  // one range replacement (covered pieces of P drop wholesale inside).
  ptreap::Ref cur = P;
  bool open = false;
  QY run0;
  std::vector<PieceData>& content = ps_scratch.merge_content;
  content.clear();
  u64 n_splices = 0;
  const auto close = [&](const QY& end) {
    if (!open) return;
    THSR_DCHECK(!content.empty());
    // Bounded solve: a sample-free run's splice is unobservable at every
    // sample ordinate — skip it and all its persistent node allocations.
    if (prune == nullptr || !prune->sample_free(run0, end)) {
      cur = ptreap::replace_range(arena, cur, run0, end, content, ctx.segs);
      ++n_splices;
    }
    content.clear();
    open = false;
  };
  // Bounded solve: coalesce a sample-free content piece into its contiguous
  // predecessor (keeping the predecessor's edge) — fewer leaves per splice,
  // fewer treap nodes, no sample can tell.
  const auto push_content = [&](const QY& y0, const QY& y1, u32 edge) {
    if (prune != nullptr && !content.empty() && prune->sample_free(y0, y1)) {
      content.back().y1 = y1;
    } else {
      content.push_back({y0, y1, edge});
    }
  };

  QY prev_end;
  bool have_prev = false;
  for (std::size_t j = 0; j < ps.size(); ++j) {
    const EnvPiece& p = ps[j];
    if (have_prev && filt::cmp(prev_end, p.y0) != 0) close(prev_end);  // gap in pi ends any run
    int st = initial[j];
    QY pos = p.y0;
    if (st == +1) {
      if (!open) {
        open = true;
        run0 = p.y0;
      }
    } else {
      close(p.y0);
    }
    for (const TransitionEvent& ev : events[j]) {
      if (st == +1) push_content(pos, ev.y, p.edge);
      if (ev.new_state == +1) {
        THSR_DCHECK(!open);
        open = true;
        run0 = ev.y;
      } else {
        close(ev.y);
      }
      pos = ev.y;
      st = ev.new_state;
    }
    if (st == +1) push_content(pos, p.y1, p.edge);
    prev_end = p.y1;
    have_prev = true;
  }
  if (have_prev) close(prev_end);
  splices.fetch_add(n_splices, std::memory_order_relaxed);
  return cur;
}

void process_leaf(u32 e, ptreap::Ref P, const HsrContext& ctx, VisibilityMap& map,
                  PhaseScratch& scratch, Phase2Oracle oracle, const BoundedPrune* prune) {
  const Terrain& t = *ctx.terrain;
  if (ctx.is_sliver[e]) {
    const SliverInfo sv = t.sliver(e);
    SliverVisibility out;
    out.visible = strictly_above_at(P, QY::of(sv.y), sv.z_hi, ctx.segs);
    if (out.visible) {
      const QY y = QY::of(sv.y);
      if (const PieceData* p = ptreap::piece_at(P, y, Side::Before)) {
        out.blocking_before = provenance(p->edge);
      }
      if (const PieceData* p = ptreap::piece_at(P, y, Side::After)) {
        out.blocking_after = provenance(p->edge);
      }
    }
    map.set_sliver(e, out);
    return;
  }
  const Seg2& s = ctx.segs[e];
  const QY a = QY::of(s.u0), b = QY::of(s.u1);
  std::vector<TransitionEvent>& events = scratch.events;
  events.clear();
  int initial;
  if (oracle == Phase2Oracle::MaterializedScan) {
    std::vector<PieceData>& flat = scratch.flat;
    flat.clear();
    flat.reserve(ptreap::count(P));
    ptreap::collect(P, flat);
    initial = walk_transitions_scan(flat, s, a, b, ctx.segs, events);
  } else {
    initial = walk_transitions(P, s, a, b, ctx.segs, events);
  }
  emit_visible(e, a, b, initial, events, map, prune);
}

}  // namespace

VisibilityMap run_parallel(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                           bool layer_stats, Phase2Oracle oracle, const BoundedPrune* prune) {
  const Terrain& t = *ctx.terrain;
  const auto n = static_cast<u32>(t.edge_count());
  VisibilityMap map{t.edge_count(), std::move(ws.map_storage)};
  if (n == 0) return map;

  const SeparatorTree& pct = *ctx.pct;

  // ------------------------------------------------------------------ phase 1
  const Stopwatch t1;
  std::vector<Envelope>& env = ws.env;
  env.assign(pct.size(), Envelope{});
  for (u32 lvl = pct.levels(); lvl-- > 0;) {
    const auto nodes = pct.level(lvl);
    const auto work_node = [&](u32 v, bool inner_parallel) {
      const PctNode& nd = pct.node(v);
      if (nd.leaf()) {
        const u32 e = ctx.order.order[nd.lo];
        if (!ctx.is_sliver[e]) env[v] = Envelope::of_segment(e, ctx.segs[e]);
      } else if (inner_parallel) {
        env[v] = merge_envelopes_parallel(env[nd.left], env[nd.right], ctx.segs,
                                          kEnvMergeStrips, prune);
      } else {
        env[v] = merge_envelopes(env[nd.left], env[nd.right], ctx.segs, nullptr, prune);
      }
    };
    // The strip-vs-plain merge decision must not depend on max_threads():
    // strip merges emit (healed) seam pieces that the work counters see, and
    // counted work is pinned to be identical across p (see kEnvMergeStrips).
    if (nodes.size() < static_cast<std::size_t>(kEnvMergeStrips)) {
      for (u32 v : nodes) work_node(v, true);
    } else {
      par::parallel_for(
          static_cast<i64>(nodes.size()),
          [&](i64 i) { work_node(nodes[static_cast<std::size_t>(i)], false); }, 1);
    }
  }
  for (const auto& e : env) stats.phase1_pieces += e.size();
  // Envelopes of right children and the root are never consumed by phase 2.
  {
    std::vector<unsigned char>& used = ws.used;
    used.assign(pct.size(), 0);
    for (u32 v = 0; v < pct.size(); ++v) {
      if (!pct.node(v).leaf()) used[pct.node(v).left] = 1;
    }
    for (u32 v = 0; v < pct.size(); ++v) {
      if (!used[v]) env[v] = Envelope{};
    }
  }
  stats.phase1_s = t1.seconds();

  // ------------------------------------------------------------------ phase 2
  const Stopwatch t2;
  PArena& arena = ws.arena;
  const u64 arena_base = arena.node_count();
  std::vector<ptreap::Ref>& inherited = ws.inherited;
  inherited.assign(pct.size(), ptreap::Ref{});
  inherited[pct.root()] = ptreap::make_floor(arena);

  // Layer counters follow the engine's rule: a solve that runs entirely on
  // this thread reads this thread's counters, which keeps concurrent solves
  // on other threads out of the per-layer deltas.
  const bool local_counters = par::runs_inline();
  const auto counters_now = [local_counters] {
    return local_counters ? work::local_snapshot() : work::snapshot();
  };
  for (u32 lvl = 0; lvl < pct.levels(); ++lvl) {
    const auto nodes = pct.level(lvl);
    const u64 nodes_before = arena.node_count();
    const Counters work_before = layer_stats ? counters_now() : Counters{};
    std::atomic<u64> splices{0};

    const auto work_node = [&](u32 v, PhaseScratch& scratch) {
      const PctNode& nd = pct.node(v);
      const ptreap::Ref P = inherited[v];
      THSR_DCHECK(bool(P));
      if (nd.leaf()) {
        process_leaf(ctx.order.order[nd.lo], P, ctx, map, scratch, oracle, prune);
        return;
      }
      inherited[nd.left] = P;
      inherited[nd.right] =
          merge_profile(arena, P, env[nd.left], ctx, splices, oracle, scratch, prune);
    };

    if (static_cast<i64>(nodes.size()) < 2 * par::max_threads()) {
      for (u32 v : nodes) work_node(v, ws.scratch);  // inner stage-1 parallelism
    } else {
      par::parallel_for(
          static_cast<i64>(nodes.size()),
          [&](i64 i) {
            thread_local PhaseScratch scratch;
            work_node(nodes[static_cast<std::size_t>(i)], scratch);
          },
          1);
    }

    if (layer_stats) {
      const Counters now = counters_now();
      LayerStats ls;
      ls.layer = lvl;
      ls.nodes = static_cast<u32>(nodes.size());
      for (u32 v : nodes) {
        const PctNode& nd = pct.node(v);
        if (!nd.leaf()) ls.pieces_consumed += env[nd.left].size();
      }
      ls.events = (now[Op::MergeEvent] - work_before[Op::MergeEvent]) +
                  (now[Op::Crossing] - work_before[Op::Crossing]);
      ls.splices = splices.load();
      ls.treap_nodes = arena.node_count() - nodes_before;
      for (u32 v : nodes) ls.profile_pieces += ptreap::count(inherited[v]);
      stats.layers.push_back(ls);
    }
  }
  stats.phase2_s = t2.seconds();
  stats.treap_nodes = arena.node_count() - arena_base;
  return map;
}

}  // namespace thsr::detail

/// \file hsr_reference.cpp
/// Correctness-oracle algorithm: process edges front-to-back, keep the
/// current profile as a *flat* envelope, and clip every edge against it by a
/// direct linear scan. This is the textbook incremental algorithm sketched
/// in the paper's section 2, with none of the output-sensitive machinery —
/// an intentionally independent code path (no persistent treap, no oracle
/// descent) that the equivalence tests compare the real algorithms against.

#include <algorithm>

#include "core/detail.hpp"
#include "envelope/envelope.hpp"

namespace thsr::detail {
namespace {

// Emit the visible runs of s (edge e) against the flat envelope `env`,
// scanning the pieces that overlap [A, B].
void reference_edge(const Envelope& env, u32 e, const Seg2& s, std::span<const Seg2> segs,
                    VisibilityMap& map, const BoundedPrune* prune) {
  const QY A = QY::of(s.u0), B = QY::of(s.u1);

  int state = -1;
  bool at_start = true;
  QY open_y = A;
  EndpointKind open_k = EndpointKind::SegmentEnd;
  u32 open_o = kNoEdge;
  const auto to_above = [&](const QY& y, EndpointKind k, u32 o) {
    if (state == +1) return;
    state = +1;
    open_y = y;
    open_k = at_start ? EndpointKind::SegmentEnd : k;
    open_o = at_start ? kNoEdge : o;
  };
  const auto to_below = [&](const QY& y, EndpointKind k, u32 o) {
    if (state != +1) {
      state = -1;
      return;
    }
    // Bounded solve: a sample-free visible piece covers no raster sample.
    if (prune == nullptr || !prune->sample_free(open_y, y)) {
      map.add_piece(e, VisiblePiece{open_y, y, open_k, k, open_o, o});
    }
    state = -1;
  };

  const auto& ps = env.pieces();
  std::size_t i = static_cast<std::size_t>(
      std::partition_point(ps.begin(), ps.end(), [&](const EnvPiece& p) { return p.y1 <= A; }) -
      ps.begin());
  QY cur = A;
  while (cur < B) {
    if (i >= ps.size() || ps[i].y0 >= B) {
      to_above(cur, EndpointKind::Break, kNoEdge);  // trailing gap: nothing occludes
      at_start = false;
      cur = B;
      break;
    }
    const EnvPiece& p = ps[i];
    if (p.y0 > cur) {  // gap before piece i
      to_above(cur, EndpointKind::Break, kNoEdge);
      at_start = false;
      cur = p.y0;
      continue;
    }
    const QY end = qmin(p.y1, B);
    const Seg2& q = segs[p.edge];
    const int entry = cmp_value_near(s, q, cur, Side::After) > 0 ? +1 : -1;
    if (entry == +1) {
      to_above(cur, EndpointKind::Break, p.edge);
    } else {
      to_below(cur, EndpointKind::Break, p.edge);
    }
    at_start = false;
    if (auto cr = crossing_in(s, q, cur, end)) {
      if (state == +1) {
        to_below(*cr, EndpointKind::Crossing, p.edge);
      } else {
        to_above(*cr, EndpointKind::Crossing, p.edge);
      }
    }
    cur = end;
    if (cur == p.y1) ++i;
  }
  if (state == +1 && (prune == nullptr || !prune->sample_free(open_y, B))) {
    map.add_piece(e, VisiblePiece{open_y, B, open_k, EndpointKind::SegmentEnd, open_o, kNoEdge});
  }
}

SliverVisibility reference_sliver(const Envelope& env, const SliverInfo& sv,
                                  std::span<const Seg2> segs) {
  SliverVisibility out;
  out.visible = true;
  const QY y = QY::of(sv.y);
  for (const Side side : {Side::Before, Side::After}) {
    if (auto idx = env.piece_index_at(y, side)) {
      const u32 pe = env.piece(*idx).edge;
      (side == Side::Before ? out.blocking_before : out.blocking_after) = pe;
      if (cmp_value_vs_int(segs[pe], y, sv.z_hi) >= 0) out.visible = false;
    }
  }
  if (!out.visible) {
    out.blocking_before = out.blocking_after = kNoEdge;
  }
  return out;
}

}  // namespace

VisibilityMap run_reference(const HsrContext& ctx, Workspace& ws, HsrStats& stats,
                            const BoundedPrune* prune) {
  const Terrain& t = *ctx.terrain;
  VisibilityMap map{t.edge_count(), std::move(ws.map_storage)};
  Envelope profile;  // envelope of all non-sliver edges processed so far

  const Stopwatch phase;
  for (const u32 e : ctx.order.order) {
    if (ctx.is_sliver[e]) {
      map.set_sliver(e, reference_sliver(profile, t.sliver(e), ctx.segs));
      continue;
    }
    const Seg2& s = ctx.segs[e];
    reference_edge(profile, e, s, ctx.segs, map, prune);
    profile = merge_envelopes(profile, Envelope::of_segment(e, s), ctx.segs, nullptr, prune);
  }
  stats.phase2_s = phase.seconds();
  return map;
}

}  // namespace thsr::detail

#include "core/hsr.hpp"

#include "core/detail.hpp"
#include "core/engine.hpp"
#include "parallel/backend.hpp"
#include "support/check.hpp"

namespace thsr {

const char* algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::Reference: return "reference";
    case Algorithm::Sequential: return "sequential";
    case Algorithm::Parallel: return "parallel";
  }
  return "?";
}

namespace detail {

HsrContext make_context(const Terrain& t) {
  HsrContext ctx;
  ctx.terrain = &t;
  const auto n = static_cast<u32>(t.edge_count());
  ctx.segs.resize(n, Seg2{0, 0, 1, 0});
  ctx.is_sliver.resize(n, 0);
  for (u32 e = 0; e < n; ++e) {
    if (t.is_sliver(e)) {
      ctx.is_sliver[e] = 1;
      ++ctx.n_slivers;
    } else {
      ctx.segs[e] = t.image_segment(e);
    }
  }
  ctx.order = compute_depth_order(t);
  if (n > 0) ctx.pct.emplace(n);
  return ctx;
}

void emit_visible(u32 edge, const QY& a, const QY& b, int initial,
                  std::span<const TransitionEvent> events, VisibilityMap& map,
                  const BoundedPrune* prune) {
  int state = initial;
  QY open_y = a;
  EndpointKind open_k = EndpointKind::SegmentEnd;
  u32 open_o = kNoEdge;
  // Bounded solve: a piece whose closed extent contains no sample ordinate
  // cannot influence the raster (closed-containment bucketing) — skip it.
  const auto keep = [&](const QY& y0, const QY& y1) {
    return prune == nullptr || !prune->sample_free(y0, y1);
  };
  for (const TransitionEvent& ev : events) {
    if (ev.new_state == state) continue;  // defensive: walks never emit these
    if (ev.new_state == +1) {
      open_y = ev.y;
      open_k = ev.kind == EventKind::Cross ? EndpointKind::Crossing : EndpointKind::Break;
      open_o = provenance(ev.profile_edge);
    } else if (state == +1 && keep(open_y, ev.y)) {
      map.add_piece(edge, VisiblePiece{open_y, ev.y, open_k,
                                       ev.kind == EventKind::Cross ? EndpointKind::Crossing
                                                                   : EndpointKind::Break,
                                       open_o, provenance(ev.profile_edge)});
    }
    state = ev.new_state;
  }
  if (state == +1 && keep(open_y, b)) {
    map.add_piece(edge, VisiblePiece{open_y, b, open_k, EndpointKind::SegmentEnd, open_o, kNoEdge});
  }
}

}  // namespace detail

// Back-compat shim: a one-shot call is a session of one — prepare a
// temporary engine and run a single solve. Bit-identical (map and work
// counters) to the pre-engine implementation.
HsrResult hidden_surface_removal(const Terrain& t, const HsrOptions& opt) {
  HsrEngine engine;
  engine.prepare(t);
  return engine.solve(opt);
}

}  // namespace thsr

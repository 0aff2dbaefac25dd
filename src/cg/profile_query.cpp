#include "cg/profile_query.hpp"

#include <algorithm>

#include "parallel/work_depth.hpp"

namespace thsr {
namespace {

struct Walker {
  const Seg2& s;
  const QY& from;
  const QY& to;
  std::span<const Seg2> segs;
  std::vector<TransitionEvent>& out;
  int state{0};    ///< 0 until the walk meets its first piece
  int initial{0};  ///< the state just after `from`
  // The query segment's double view, built once per walk; each piece's view
  // and the overlap abscissa's view are built once per piece (the batched
  // filtered-predicate protocol, DESIGN.md section 5).
  const filt::SegF sf = s.coeffs_f();

  // Enter a stretch of the window on which s has state `entry`. The first
  // stretch (the one just after `from`) fixes the initial state; a later
  // change is a transition, and true tells the caller to emit its Break.
  bool enter(int entry) {
    if (entry == state) return false;
    const bool first = state == 0;
    state = entry;
    if (first) initial = entry;
    return !first;
  }

  // Process the piece p on its overlap with (from, to).
  void do_piece(const PieceData& p) {
    const QY lo = filt::qmax(from, p.y0);
    const QY hi = filt::qmin(to, p.y1);
    if (!(filt::cmp(lo, hi) < 0)) return;
    const Seg2& q = resolve_seg(segs, p.edge);
    const filt::SegF qf = q.coeffs_f();
    const filt::YF lof(lo);
    const int entry = cmp_value_near(s, sf, q, qf, lo, lof, Side::After) > 0 ? +1 : -1;
    if (enter(entry)) {
      out.push_back({lo, entry, p.edge, EventKind::Break});
      work::count(Op::MergeEvent);
    }
    if (auto cr = crossing_in(s, sf, q, qf, lo, lof, hi)) {
      state = -state;
      out.push_back({*cr, state, p.edge, EventKind::Cross});
      work::count(Op::Crossing);
    }
  }

  // A subtree on which s has one state throughout: at most one Break, at
  // the piece the subtree's window starts in (full coverage guarantees one).
  void enter_subtree(ptreap::Ref t, const QY& olo, int entry) {
    if (!enter(entry)) return;
    const PieceData* p = ptreap::piece_at(t, olo, Side::After);
    THSR_CHECK(p != nullptr);
    out.push_back({olo, entry, p->edge, EventKind::Break});
    work::count(Op::MergeEvent);
  }

  // Visit subtree t on its window (olo, ohi): its key span clipped to
  // (from, to), non-empty, with s's approximate ordinates sa, sb at the
  // window's ends. The parent clips each child's window and evaluates s
  // only at the one end that moves.
  void visit(ptreap::Ref t, const QY& olo, const QY& ohi, double sa, double sb) {
    work::count(Op::OracleStep);

    // Conservative f64 pruning. zlo/zhi are outward-rounded subtree bounds;
    // widen the query side too, so "prune" is only ever a true negative.
    const double smin = std::min(sa, sb) - 0.25, smax = std::max(sa, sb) + 0.25;
    if (smin > static_cast<double>(t->zhi)) {
      // Every piece in the subtree is strictly below s: entry states are all
      // +1 and crossings are impossible.
      enter_subtree(t, olo, +1);
      return;
    }
    if (smax < static_cast<double>(t->zlo)) {
      // s strictly below every piece: entry states all -1, no crossings.
      enter_subtree(t, olo, -1);
      return;
    }
    const PieceData& p = t->piece;
    if (const ptreap::Ref l = t.left()) {
      const QY& hi = filt::qmin(p.y0, ohi);
      if (filt::cmp(olo, hi) < 0) visit(l, olo, hi, sa, &hi == &ohi ? sb : s.approx_at(hi));
    }
    do_piece(p);
    if (const ptreap::Ref r = t.right()) {
      const QY& lo = filt::qmax(p.y1, olo);
      if (filt::cmp(lo, ohi) < 0) visit(r, lo, ohi, &lo == &olo ? sa : s.approx_at(lo), sb);
    }
  }
};

}  // namespace

int walk_transitions(ptreap::Ref t, const Seg2& s, const QY& from, const QY& to,
                     std::span<const Seg2> segs, std::vector<TransitionEvent>& out) {
  THSR_DCHECK(from < to);
  work::count(Op::OracleQuery);
  Walker w{s, from, to, segs, out};
  if (t) w.visit(t, from, to, s.approx_at(from), s.approx_at(to));
  THSR_CHECK(w.initial != 0);  // full coverage: some piece always overlaps
  return w.initial;
}

int walk_transitions_scan(std::span<const PieceData> pieces, const Seg2& s, const QY& from,
                          const QY& to, std::span<const Seg2> segs,
                          std::vector<TransitionEvent>& out) {
  THSR_DCHECK(from < to);
  work::count(Op::OracleQuery);
  // Skip pieces entirely before the window.
  auto it = std::partition_point(pieces.begin(), pieces.end(),
                                 [&](const PieceData& p) { return filt::cmp(p.y1, from) <= 0; });
  int state = 0;
  bool first = true;
  int initial = 0;
  const filt::SegF sf = s.coeffs_f();  // once per scan, not per piece
  for (; it != pieces.end() && filt::cmp(it->y0, to) < 0; ++it) {
    const PieceData& p = *it;
    work::count(Op::OracleStep);
    const QY lo = filt::qmax(from, p.y0), hi = filt::qmin(to, p.y1);
    if (!(filt::cmp(lo, hi) < 0)) continue;
    const Seg2& q = resolve_seg(segs, p.edge);
    const filt::SegF qf = q.coeffs_f();
    const filt::YF lof(lo);
    const int entry = cmp_value_near(s, sf, q, qf, lo, lof, Side::After) > 0 ? +1 : -1;
    if (first) {
      initial = state = entry;
      first = false;
    } else if (entry != state) {
      out.push_back({lo, entry, p.edge, EventKind::Break});
      work::count(Op::MergeEvent);
      state = entry;
    }
    if (auto cr = crossing_in(s, sf, q, qf, lo, lof, hi)) {
      state = -state;
      out.push_back({*cr, state, p.edge, EventKind::Cross});
      work::count(Op::Crossing);
    }
  }
  THSR_CHECK(!first);  // full coverage: some piece always overlaps
  return initial;
}

bool strictly_above_at(ptreap::Ref t, const QY& y, i64 w, std::span<const Seg2> segs) {
  for (const Side side : {Side::Before, Side::After}) {
    if (const PieceData* p = ptreap::piece_at(t, y, side)) {
      if (cmp_value_vs_int(resolve_seg(segs, p->edge), y, w) >= 0) return false;
    }
  }
  return true;
}

}  // namespace thsr

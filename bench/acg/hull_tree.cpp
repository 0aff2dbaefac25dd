#include "acg/hull_tree.hpp"

#include "parallel/work_depth.hpp"

namespace thsr {
namespace {
constexpr double kSlack = 0.25;  // conservative margin for double chains
}

HullTree::HullTree(const Envelope& env, std::span<const Seg2> segs) : env_(&env), segs_(segs) {
  if (env.size() == 0) return;
  nodes_.reserve(2 * env.size());
  root_ = build(0, env.size());
}

std::size_t HullTree::build(std::size_t lo, std::size_t hi) {
  const std::size_t id = nodes_.size();
  nodes_.push_back(Node{lo, hi, {}, {}});
  std::vector<HullPoint> pts;
  pts.reserve(2 * (hi - lo));
  for (std::size_t i = lo; i < hi; ++i) {
    const EnvPiece& p = env_->piece(i);
    const Seg2& s = segs_[p.edge];
    pts.push_back({p.y0.approx(), s.approx_at(p.y0)});
    pts.push_back({p.y1.approx(), s.approx_at(p.y1)});
  }
  nodes_[id].upper = build_upper_hull(pts);
  nodes_[id].lower = build_lower_hull(pts);
  if (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    build(lo, mid);   // children occupy id+1 .. : locate by recomputing mid
    build(mid, hi);
  }
  return id;
}

std::optional<CrossHit> HullTree::leaf_test(std::size_t piece, const Seg2& s, const QY& from,
                                            const QY& to) const {
  const EnvPiece& p = env_->piece(piece);
  const QY lo = qmax(from, p.y0), hi = qmin(to, p.y1);
  if (!(lo < hi)) return std::nullopt;
  if (auto cr = crossing_in(s, segs_[p.edge], lo, hi)) {
    return CrossHit{*cr, piece, p.edge};
  }
  return std::nullopt;
}

template <bool Leftmost>
std::optional<CrossHit> HullTree::search(std::size_t node, const Seg2& s, const QY& from,
                                         const QY& to) const {
  const Node& n = nodes_[node];
  visited_.fetch_add(1, std::memory_order_relaxed);
  work::count(Op::OracleStep);
  const EnvPiece& first = env_->piece(n.lo);
  const EnvPiece& last = env_->piece(n.hi - 1);
  if (cmp(last.y1, from) <= 0 || cmp(first.y0, to) >= 0) return std::nullopt;
  // Chain pruning: a crossing needs envelope vertices on both sides of s.
  const double slope =
      static_cast<double>(s.A()) / static_cast<double>(s.B());
  const double icept = static_cast<double>(s.v0) - slope * static_cast<double>(s.u0);
  if (!maybe_point_above(n.upper, slope, icept, kSlack) ||
      !maybe_point_below(n.lower, slope, icept, kSlack)) {
    return std::nullopt;
  }
  if (n.hi - n.lo == 1) return leaf_test(n.lo, s, from, to);
  const std::size_t mid = n.lo + (n.hi - n.lo) / 2;
  // Children layout: left = node+1, right = node+1+size_of_left_subtree.
  const std::size_t left = node + 1;
  const std::size_t left_nodes = 2 * (mid - n.lo) - 1;
  const std::size_t right = left + left_nodes;
  const std::size_t a = Leftmost ? left : right;
  const std::size_t b = Leftmost ? right : left;
  if (auto hit = search<Leftmost>(a, s, from, to)) return hit;
  return search<Leftmost>(b, s, from, to);
}

std::optional<CrossHit> HullTree::first_crossing(const Seg2& s, const QY& from,
                                                 const QY& to) const {
  if (env_->size() == 0 || !(from < to)) return std::nullopt;
  work::count(Op::OracleQuery);
  return search<true>(root_, s, from, to);
}

std::optional<CrossHit> HullTree::last_crossing(const Seg2& s, const QY& from,
                                                const QY& to) const {
  if (env_->size() == 0 || !(from < to)) return std::nullopt;
  work::count(Op::OracleQuery);
  return search<false>(root_, s, from, to);
}

}  // namespace thsr

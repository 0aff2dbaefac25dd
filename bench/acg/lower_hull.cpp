#include "acg/lower_hull.hpp"

#include <algorithm>

namespace thsr {
namespace {

// Cross product (b-a) x (c-a); positive = left turn.
double cross(const HullPoint& a, const HullPoint& b, const HullPoint& c) {
  return (b.u - a.u) * (c.v - a.v) - (b.v - a.v) * (c.u - a.u);
}

// Andrew scan keeping `keep_turn(cross) == true` corners.
template <typename Keep>
HullChain scan(std::span<const HullPoint> pts, Keep keep_turn) {
  HullChain h;
  h.reserve(pts.size());
  for (const auto& p : pts) {
    while (h.size() >= 2 && !keep_turn(cross(h[h.size() - 2], h.back(), p))) h.pop_back();
    h.push_back(p);
  }
  return h;
}

}  // namespace

HullChain build_upper_hull(std::span<const HullPoint> pts) {
  return scan(pts, [](double c) { return c < 0.0; });  // right turns only
}

HullChain build_lower_hull(std::span<const HullPoint> pts) {
  return scan(pts, [](double c) { return c > 0.0; });  // left turns only
}

HullChain merge_upper_hulls(const HullChain& a, const HullChain& b) {
  std::vector<HullPoint> cat;
  cat.reserve(a.size() + b.size());
  cat.insert(cat.end(), a.begin(), a.end());
  cat.insert(cat.end(), b.begin(), b.end());
  return build_upper_hull(cat);
}

HullChain merge_lower_hulls(const HullChain& a, const HullChain& b) {
  std::vector<HullPoint> cat;
  cat.reserve(a.size() + b.size());
  cat.insert(cat.end(), a.begin(), a.end());
  cat.insert(cat.end(), b.begin(), b.end());
  return build_lower_hull(cat);
}

namespace {

// Unimodal (max for concave=true, min otherwise) search over f(i) = dir*(v_i - line(u_i)).
double unimodal_extreme(const HullChain& c, double slope, double icept, double dir) {
  auto f = [&](std::size_t i) { return dir * (c[i].v - (slope * c[i].u + icept)); };
  std::size_t lo = 0, hi = c.size() - 1;
  while (hi - lo > 2) {
    const std::size_t m = lo + (hi - lo) / 2;
    if (f(m) < f(m + 1)) {
      lo = m + 1;
    } else {
      hi = m;
    }
  }
  double best = f(lo);
  for (std::size_t i = lo + 1; i <= hi; ++i) best = std::max(best, f(i));
  return dir * best;
}

}  // namespace

double max_excess_above(const HullChain& upper, double slope, double icept) {
  THSR_CHECK(!upper.empty());
  return unimodal_extreme(upper, slope, icept, +1.0);
}

double min_excess_below(const HullChain& lower, double slope, double icept) {
  THSR_CHECK(!lower.empty());
  return unimodal_extreme(lower, slope, icept, -1.0);
}

}  // namespace thsr

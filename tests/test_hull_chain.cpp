/// Convex chain (hull) tests: construction vs brute force, merge, and the
/// unimodal extreme searches the ACG pruning relies on.

#include <gtest/gtest.h>

#include <random>

#include "acg/lower_hull.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

std::vector<HullPoint> random_points(u64 seed, std::size_t n) {
  auto g = test::rng(seed);
  std::uniform_real_distribution<double> uv(-100, 100);
  std::vector<HullPoint> pts(n);
  double u = -100;
  for (auto& p : pts) {
    u += std::abs(uv(g)) / 50 + 0.01;  // strictly increasing u
    p = {u, uv(g)};
  }
  return pts;
}

double brute_max_excess(const std::vector<HullPoint>& pts, double slope, double icept) {
  double best = -1e300;
  for (const auto& p : pts) best = std::max(best, p.v - (slope * p.u + icept));
  return best;
}

double brute_min_excess(const std::vector<HullPoint>& pts, double slope, double icept) {
  double best = 1e300;
  for (const auto& p : pts) best = std::min(best, p.v - (slope * p.u + icept));
  return best;
}

TEST(HullChain, UpperHullIsConcaveAndCoversExtremes) {
  for (u64 seed : {1u, 2u, 3u, 4u}) {
    const auto pts = random_points(seed, 200);
    const auto hull = build_upper_hull(pts);
    ASSERT_GE(hull.size(), 2u);
    // Concavity: consecutive slopes non-increasing.
    for (std::size_t i = 2; i < hull.size(); ++i) {
      const double s1 = (hull[i - 1].v - hull[i - 2].v) / (hull[i - 1].u - hull[i - 2].u);
      const double s2 = (hull[i].v - hull[i - 1].v) / (hull[i].u - hull[i - 1].u);
      EXPECT_LE(s2, s1 + 1e-9);
    }
    // Every input point lies on or below the chain.
    for (const auto& p : pts) {
      for (std::size_t i = 1; i < hull.size(); ++i) {
        if (hull[i - 1].u <= p.u && p.u <= hull[i].u) {
          const double t = (p.u - hull[i - 1].u) / (hull[i].u - hull[i - 1].u);
          EXPECT_LE(p.v, hull[i - 1].v + t * (hull[i].v - hull[i - 1].v) + 1e-9);
        }
      }
    }
  }
}

TEST(HullChain, ExtremeSearchMatchesBruteForce) {
  for (u64 seed : {10u, 11u, 12u}) {
    const auto pts = random_points(seed, 500);
    const auto upper = build_upper_hull(pts);
    const auto lower = build_lower_hull(pts);
    auto g = test::rng(seed * 7);
    std::uniform_real_distribution<double> d(-3, 3);
    for (int i = 0; i < 200; ++i) {
      const double slope = d(g), icept = 20 * d(g);
      EXPECT_NEAR(max_excess_above(upper, slope, icept), brute_max_excess(pts, slope, icept),
                  1e-6);
      EXPECT_NEAR(min_excess_below(lower, slope, icept), brute_min_excess(pts, slope, icept),
                  1e-6);
    }
  }
}

TEST(HullChain, MergePreservesHull) {
  const auto a = random_points(21, 100);
  auto b = random_points(22, 100);
  const double shift = a.back().u - b.front().u + 1.0;
  for (auto& p : b) p.u += shift;  // disjoint, ordered u-ranges
  std::vector<HullPoint> all = a;
  all.insert(all.end(), b.begin(), b.end());

  const auto merged = merge_upper_hulls(build_upper_hull(a), build_upper_hull(b));
  const auto direct = build_upper_hull(all);
  ASSERT_EQ(merged.size(), direct.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_DOUBLE_EQ(merged[i].u, direct[i].u);
    EXPECT_DOUBLE_EQ(merged[i].v, direct[i].v);
  }

  const auto merged_lo = merge_lower_hulls(build_lower_hull(a), build_lower_hull(b));
  const auto direct_lo = build_lower_hull(all);
  ASSERT_EQ(merged_lo.size(), direct_lo.size());
}

TEST(HullChain, MaybeTestsAreConservative) {
  const auto pts = random_points(33, 300);
  const auto upper = build_upper_hull(pts);
  const auto lower = build_lower_hull(pts);
  auto g = test::rng(99);
  std::uniform_real_distribution<double> d(-2, 2);
  for (int i = 0; i < 300; ++i) {
    const double slope = d(g), icept = 50 * d(g);
    const bool has_above = brute_max_excess(pts, slope, icept) > 0;
    const bool has_below = brute_min_excess(pts, slope, icept) < 0;
    if (has_above) {
      EXPECT_TRUE(maybe_point_above(upper, slope, icept, 0.25));
    }
    if (has_below) {
      EXPECT_TRUE(maybe_point_below(lower, slope, icept, 0.25));
    }
  }
}

TEST(HullChain, DegenerateSizes) {
  const std::vector<HullPoint> one{{0, 1}};
  EXPECT_EQ(build_upper_hull(one).size(), 1u);
  EXPECT_DOUBLE_EQ(max_excess_above(build_upper_hull(one), 0, 0), 1.0);
  const std::vector<HullPoint> two{{0, 1}, {1, 5}};
  EXPECT_EQ(build_upper_hull(two).size(), 2u);
  const std::vector<HullPoint> collinear{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  EXPECT_LE(build_upper_hull(collinear).size(), 4u);
  EXPECT_NEAR(max_excess_above(build_upper_hull(collinear), 1, 0), 0.0, 1e-12);
}

}  // namespace
}  // namespace thsr

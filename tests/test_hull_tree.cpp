/// Static ACG (hull tree) tests: first/last crossing against brute force,
/// and equivalence of the two all-crossings strategies (paper Lemma 3.2).

#include <gtest/gtest.h>

#include "acg/all_crossings.hpp"
#include "envelope/build.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

std::vector<QY> brute_crossings(const Envelope& env, std::span<const Seg2> segs, const Seg2& s,
                                const QY& from, const QY& to) {
  std::vector<QY> out;
  for (const EnvPiece& p : env.pieces()) {
    const QY lo = qmax(from, p.y0), hi = qmin(to, p.y1);
    if (!(lo < hi)) continue;
    if (auto cr = crossing_in(s, segs[p.edge], lo, hi)) out.push_back(*cr);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class HullTreeP : public ::testing::TestWithParam<std::tuple<u64, std::size_t>> {};

TEST_P(HullTreeP, FirstAndLastCrossingMatchBrute) {
  const auto [seed, n] = GetParam();
  const auto segs = test::random_segments(seed, n, 700);
  const auto ids = test::iota_ids(n);
  const Envelope env = envelope_of(ids, segs);
  const HullTree tree(env, segs);

  const auto queries = test::random_segments(seed * 13 + 5, 150, 700);
  for (const Seg2& s : queries) {
    const QY a = QY::of(s.u0), b = QY::of(s.u1);
    const auto brute = brute_crossings(env, segs, s, a, b);
    const auto first = tree.first_crossing(s, a, b);
    const auto last = tree.last_crossing(s, a, b);
    ASSERT_EQ(first.has_value(), !brute.empty());
    ASSERT_EQ(last.has_value(), !brute.empty());
    if (!brute.empty()) {
      EXPECT_EQ(cmp(first->y, brute.front()), 0);
      EXPECT_EQ(cmp(last->y, brute.back()), 0);
    }
  }
}

TEST_P(HullTreeP, AllCrossingsWalkEqualsSplit) {
  const auto [seed, n] = GetParam();
  const auto segs = test::random_segments(seed + 100, n, 700);
  const auto ids = test::iota_ids(n);
  const Envelope env = envelope_of(ids, segs);
  const HullTree tree(env, segs);

  const auto queries = test::random_segments(seed * 17 + 3, 60, 700);
  for (const Seg2& s : queries) {
    const QY a = QY::of(s.u0), b = QY::of(s.u1);
    const auto walk = all_crossings_walk(tree, s, a, b);
    const auto split = all_crossings_split(tree, env, s, a, b, /*parallel=*/false);
    const auto split_par = all_crossings_split(tree, env, s, a, b, /*parallel=*/true);
    const auto brute = brute_crossings(env, segs, s, a, b);
    ASSERT_EQ(walk.size(), brute.size());
    ASSERT_EQ(split.size(), brute.size());
    ASSERT_EQ(split_par.size(), brute.size());
    for (std::size_t i = 0; i < brute.size(); ++i) {
      EXPECT_EQ(cmp(walk[i].y, brute[i]), 0);
      EXPECT_EQ(cmp(split[i].y, brute[i]), 0);
      EXPECT_EQ(cmp(split_par[i].y, brute[i]), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HullTreeP,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(8u, 64u, 400u)),
                         [](const auto& info) {
                           return "s" + std::to_string(std::get<0>(info.param)) + "_n" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(HullTree, EmptyEnvelope) {
  const Envelope env;
  std::vector<Seg2> segs;
  const HullTree tree(env, segs);
  const Seg2 s{0, 0, 10, 10};
  EXPECT_FALSE(tree.first_crossing(s, QY::of(0), QY::of(10)).has_value());
}

TEST(HullTree, QueryCostIsLogarithmicOnSeparableInputs) {
  // A convex-ish envelope: chain pruning should keep visits near O(log^2 m).
  std::vector<Seg2> segs;
  const int m = 2048;
  for (int i = 0; i < m; ++i) {
    const i64 y0 = 4 * i, y1 = 4 * i + 4;
    const i64 z0 = -(y0 - 2 * m) * (y0 - 2 * m) / 256, z1 = -(y1 - 2 * m) * (y1 - 2 * m) / 256;
    segs.push_back(Seg2{y0, z0 + 4000, y1, z1 + 4000});
  }
  const Envelope env = envelope_of(test::iota_ids(segs.size()), segs);
  const HullTree tree(env, segs);
  tree.reset_stats();
  const Seg2 q{0, 3000, 4 * m, 5000};
  (void)tree.first_crossing(q, QY::of(0), QY::of(4 * m));
  EXPECT_LT(tree.nodes_visited(), 30 * 12u * 12u);  // generous polylog ceiling
}

}  // namespace
}  // namespace thsr

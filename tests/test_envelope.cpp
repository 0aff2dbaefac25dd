/// Envelope tests (paper Lemma 3.1): exact pointwise-max semantics of merge
/// and divide-and-conquer builds, crossing events, parallel/serial equality,
/// Davenport–Schinzel size sanity.

#include <gtest/gtest.h>

#include "envelope/build.hpp"
#include "parallel/backend.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

TEST(Envelope, OfSegmentAndEval) {
  const Seg2 s{0, 1, 10, 11};
  const Envelope e = Envelope::of_segment(3, s);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e.edge_at(QY::of(5), Side::After), std::optional<u32>(3));
  EXPECT_EQ(e.edge_at(QY::of(0), Side::After), std::optional<u32>(3));
  EXPECT_EQ(e.edge_at(QY::of(0), Side::Before), std::nullopt);
  EXPECT_EQ(e.edge_at(QY::of(10), Side::After), std::nullopt);
  EXPECT_EQ(e.edge_at(QY::of(10), Side::Before), std::optional<u32>(3));
  EXPECT_EQ(e.edge_at(QY::of(12), Side::After), std::nullopt);
}

TEST(Envelope, MergeTwoCrossingSegments) {
  std::vector<Seg2> segs{{0, 0, 10, 10}, {0, 10, 10, 0}};
  std::vector<CrossEvent> events;
  const Envelope m = merge_envelopes(Envelope::of_segment(0, segs[0]),
                                     Envelope::of_segment(1, segs[1]), segs, &events);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.piece(0).edge, 1u);  // descending one is higher before y=5
  EXPECT_EQ(m.piece(1).edge, 0u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].y, QY::of(5));
  const auto ids = test::iota_ids(2);
  test::expect_envelope_exact(m, segs, ids, 0, 10);
}

TEST(Envelope, MergeDisjointSpansLeavesGap) {
  std::vector<Seg2> segs{{0, 1, 4, 1}, {8, 2, 12, 2}};
  const Envelope m = merge_envelopes(Envelope::of_segment(0, segs[0]),
                                     Envelope::of_segment(1, segs[1]), segs);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m.edge_at(QY::of(6), Side::After), std::nullopt);
  test::expect_envelope_exact(m, segs, test::iota_ids(2), 0, 12);
}

TEST(Envelope, TieGoesToFront) {
  // Identical geometry, different ids: the front (first) envelope wins.
  std::vector<Seg2> segs{{0, 5, 10, 5}, {0, 5, 10, 5}};
  const Envelope m = merge_envelopes(Envelope::of_segment(0, segs[0]),
                                     Envelope::of_segment(1, segs[1]), segs);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.piece(0).edge, 0u);
  const Envelope m2 = merge_envelopes(Envelope::of_segment(1, segs[1]),
                                      Envelope::of_segment(0, segs[0]), segs);
  ASSERT_EQ(m2.size(), 1u);
  EXPECT_EQ(m2.piece(0).edge, 1u);
}

TEST(Envelope, SharedEndpointChains) {
  // A monotone chain of segments sharing endpoints (the common terrain case).
  std::vector<Seg2> segs{{0, 0, 4, 6}, {4, 6, 8, 2}, {8, 2, 12, 9}};
  const auto ids = test::iota_ids(3);
  const Envelope e = envelope_of(ids, segs);
  test::expect_envelope_exact(e, segs, ids, 0, 12);
  EXPECT_EQ(e.size(), 3u);
}

class EnvelopeRandomP : public ::testing::TestWithParam<std::tuple<u64, std::size_t>> {};

TEST_P(EnvelopeRandomP, BuildMatchesPointwiseMax) {
  const auto [seed, n] = GetParam();
  const auto segs = test::random_segments(seed, n, 200);
  const auto ids = test::iota_ids(n);
  const Envelope e = envelope_of(ids, segs);
  test::expect_envelope_exact(e, segs, ids, -200, 200);
  // Davenport–Schinzel sanity: far below the quadratic worst case.
  EXPECT_LE(e.size(), 8 * n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EnvelopeRandomP,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                                            ::testing::Values(3u, 10u, 50u, 150u)),
                         [](const auto& info) {
                           return "s" + std::to_string(std::get<0>(info.param)) + "_n" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Envelope, ParallelBuildEqualsSerial) {
  const auto segs = test::random_segments(77, 4000, 5000);
  const auto ids = test::iota_ids(segs.size());
  const Envelope serial = envelope_of(ids, segs, /*parallel=*/false);
  const Envelope parallel = [&] {
    const par::ScopedConfig cfg(2, std::nullopt);
    return envelope_of(ids, segs, /*parallel=*/true);
  }();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.piece(i).edge, parallel.piece(i).edge);
    EXPECT_EQ(serial.piece(i).y0, parallel.piece(i).y0);
    EXPECT_EQ(serial.piece(i).y1, parallel.piece(i).y1);
  }
}

TEST(Envelope, ParallelMergeEqualsSerialMerge) {
  const auto segs = test::random_segments(78, 3000, 4000);
  std::vector<u32> a_ids, b_ids;
  for (u32 i = 0; i < segs.size(); ++i) (i % 2 ? a_ids : b_ids).push_back(i);
  const Envelope a = envelope_of(a_ids, segs), b = envelope_of(b_ids, segs);
  const Envelope serial = merge_envelopes(a, b, segs);
  const Envelope strips = merge_envelopes_parallel(a, b, segs, 8);
  ASSERT_EQ(serial.size(), strips.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.piece(i).edge, strips.piece(i).edge);
    EXPECT_EQ(serial.piece(i).y0, strips.piece(i).y0);
  }
}

TEST(Envelope, CutEnvelope) {
  const auto segs = test::random_segments(80, 50, 100);
  const auto ids = test::iota_ids(segs.size());
  const Envelope e = envelope_of(ids, segs);
  const Envelope c = cut_envelope(e, QY::of(-20), QY::of(20));
  for (const EnvPiece& p : c.pieces()) {
    EXPECT_GE(cmp(p.y0, QY::of(-20)), 0);
    EXPECT_LE(cmp(p.y1, QY::of(20)), 0);
  }
  c.validate(segs);
}

TEST(Envelope, MergeEventsAreSorted) {
  const auto segs = test::random_segments(81, 400, 600);
  std::vector<u32> a_ids, b_ids;
  for (u32 i = 0; i < segs.size(); ++i) (i % 2 ? a_ids : b_ids).push_back(i);
  const Envelope a = envelope_of(a_ids, segs), b = envelope_of(b_ids, segs);
  std::vector<CrossEvent> events;
  merge_envelopes(a, b, segs, &events);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(cmp(events[i - 1].y, events[i].y), 0);
  }
  EXPECT_GT(events.size(), 0u);
}

TEST(Envelope, EmptyCases) {
  std::vector<Seg2> segs{{0, 0, 1, 1}};
  const Envelope empty;
  const Envelope one = Envelope::of_segment(0, segs[0]);
  EXPECT_EQ(merge_envelopes(empty, empty, segs).size(), 0u);
  EXPECT_EQ(merge_envelopes(one, empty, segs).size(), 1u);
  EXPECT_EQ(merge_envelopes(empty, one, segs).size(), 1u);
  EXPECT_EQ(envelope_of({}, segs).size(), 0u);
}

}  // namespace
}  // namespace thsr

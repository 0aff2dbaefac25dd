/// Persistent treap tests: randomized op sequences against a flat model,
/// with *all* historical versions re-verified after every update (the
/// persistence contract), plus shape determinism and structural invariants,
/// and an arena's per-thread bookkeeping dying with the arena.

#include <gtest/gtest.h>

#include <random>

#include "persist/ptreap.hpp"
#include "test_util.hpp"

// The live-heap probe needs glibc's mallinfo2 (2.33+) and the system
// allocator, which the sanitizers replace.
#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define THSR_LIVE_HEAP_PROBE 1
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#undef THSR_LIVE_HEAP_PROBE
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#undef THSR_LIVE_HEAP_PROBE
#endif
#endif

namespace thsr {
namespace {

// Wide segments so any piece within [-1000, 1000] is valid for any edge id.
std::vector<Seg2> wide_segments(u64 seed, std::size_t n) {
  auto g = test::rng(seed);
  std::uniform_int_distribution<i64> v(-500, 500);
  std::vector<Seg2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Seg2{-1000, v(g), 1000, v(g)});
  return out;
}

using Model = std::vector<PieceData>;

Model model_floor() {
  return {PieceData{QY::of(-kMaxCoord), QY::of(kMaxCoord), kFloorEdge}};
}

Model model_replace(const Model& m, const QY& lo, const QY& hi, std::span<const PieceData> run) {
  Model out;
  for (const PieceData& p : m) {
    if (cmp(p.y1, lo) <= 0) {
      out.push_back(p);
    } else if (cmp(p.y0, lo) < 0) {
      out.push_back({p.y0, lo, p.edge});
    }
  }
  out.insert(out.end(), run.begin(), run.end());
  for (const PieceData& p : m) {
    if (cmp(p.y0, hi) >= 0) {
      out.push_back(p);
    } else if (cmp(p.y1, hi) > 0) {
      out.push_back({hi, p.y1, p.edge});
    }
  }
  return out;
}

void expect_equal(ptreap::Ref t, const Model& m, std::span<const Seg2> segs) {
  std::vector<PieceData> got;
  ptreap::collect(t, got);
  ASSERT_EQ(got.size(), m.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(cmp(got[i].y0, m[i].y0), 0) << "piece " << i;
    EXPECT_EQ(cmp(got[i].y1, m[i].y1), 0) << "piece " << i;
    EXPECT_EQ(got[i].edge, m[i].edge) << "piece " << i;
  }
  ptreap::validate(t, segs);
}

TEST(PTreap, FloorAndBasicSplice) {
  PArena arena;
  const auto segs = wide_segments(1, 4);
  ptreap::Ref t = ptreap::make_floor(arena);
  EXPECT_EQ(ptreap::count(t), 1u);
  const PieceData run[] = {PieceData{QY::of(0), QY::of(10), 2}};
  ptreap::Ref t2 = ptreap::replace_range(arena, t, QY::of(0), QY::of(10), run, segs);
  EXPECT_EQ(ptreap::count(t2), 3u);  // floor-left, piece, floor-right
  EXPECT_EQ(ptreap::count(t), 1u);   // old version untouched
  const PieceData* p = ptreap::piece_at(t2, QY::of(5), Side::After);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->edge, 2u);
  EXPECT_EQ(ptreap::piece_at(t2, QY::of(-5), Side::After)->edge, kFloorEdge);
  EXPECT_EQ(ptreap::piece_at(t, QY::of(5), Side::After)->edge, kFloorEdge);
}

TEST(PTreap, PieceAtSides) {
  PArena arena;
  const auto segs = wide_segments(2, 4);
  ptreap::Ref t = ptreap::make_floor(arena);
  const PieceData run[] = {PieceData{QY::of(0), QY::of(5), 1},
                           PieceData{QY::of(5), QY::of(10), 2}};
  t = ptreap::replace_range(arena, t, QY::of(0), QY::of(10), run, segs);
  EXPECT_EQ(ptreap::piece_at(t, QY::of(5), Side::Before)->edge, 1u);
  EXPECT_EQ(ptreap::piece_at(t, QY::of(5), Side::After)->edge, 2u);
  EXPECT_EQ(ptreap::piece_at(t, QY::of(0), Side::Before)->edge, kFloorEdge);
  EXPECT_EQ(ptreap::piece_at(t, QY::of(0), Side::After)->edge, 1u);
  EXPECT_EQ(ptreap::piece_at(t, QY(7, 2), Side::After)->edge, 1u);  // 3.5
}

class PTreapRandomP : public ::testing::TestWithParam<u64> {};

TEST_P(PTreapRandomP, RandomizedOpsPreserveAllVersions) {
  const u64 seed = GetParam();
  auto g = test::rng(seed);
  PArena arena;
  const auto segs = wide_segments(seed * 3 + 1, 16);
  std::uniform_int_distribution<i64> coord(-900, 900);
  std::uniform_int_distribution<int> den(1, 7), nrun(1, 4), edge(0, 15);

  std::vector<std::pair<ptreap::Ref, Model>> versions;
  versions.emplace_back(ptreap::make_floor(arena), model_floor());

  for (int step = 0; step < 60; ++step) {
    // Random exact-rational interval [lo, hi] inside the coverage.
    const int d1 = den(g), d2 = den(g);
    QY lo(coord(g) * d1 + den(g) - 1, d1);
    QY hi(coord(g) * d2 + den(g) - 1, d2);
    if (!(lo < hi)) std::swap(lo, hi);
    if (!(lo < hi)) continue;
    // Run: 1..4 contiguous pieces covering [lo, hi] split at interpolated
    // integer-ish points.
    const int k = nrun(g);
    std::vector<QY> cuts{lo};
    for (int i = 1; i < k; ++i) {
      // lo + i*(hi-lo)/k as an exact rational with small denominator:
      const QY c(lo.p * (k - i) * hi.q + hi.p * i * lo.q, i128{k} * lo.q * hi.q);
      if (cuts.back() < c && c < hi) cuts.push_back(c);
    }
    cuts.push_back(hi);
    std::vector<PieceData> run;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      run.push_back({cuts[i], cuts[i + 1], static_cast<u32>(edge(g))});
    }
    const auto& [base_ref, base_model] = versions[std::uniform_int_distribution<std::size_t>(
        0, versions.size() - 1)(g)];
    ptreap::Ref next = ptreap::replace_range(arena, base_ref, lo, hi, run, segs);
    versions.emplace_back(next, model_replace(base_model, lo, hi, run));

    // Persistence: every version, including old ones, still matches.
    for (const auto& [ref, model] : versions) expect_equal(ref, model, segs);
  }
  EXPECT_GT(arena.node_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PTreapRandomP, ::testing::Values(1, 2, 3, 4, 5, 6),
                         [](const auto& info) { return "seed" + std::to_string(info.param); });

TEST(PTreap, ShapeIsHistoryIndependent) {
  // Same final piece set reached by different splice orders => same shape
  // (content-hash priorities). Compare by preorder traversal of pieces.
  PArena arena;
  const auto segs = wide_segments(9, 8);
  const PieceData a{QY::of(0), QY::of(10), 1};
  const PieceData b{QY::of(20), QY::of(30), 2};
  ptreap::Ref t1 = ptreap::make_floor(arena);
  t1 = ptreap::replace_range(arena, t1, a.y0, a.y1, std::span(&a, 1), segs);
  t1 = ptreap::replace_range(arena, t1, b.y0, b.y1, std::span(&b, 1), segs);
  ptreap::Ref t2 = ptreap::make_floor(arena);
  t2 = ptreap::replace_range(arena, t2, b.y0, b.y1, std::span(&b, 1), segs);
  t2 = ptreap::replace_range(arena, t2, a.y0, a.y1, std::span(&a, 1), segs);

  const std::function<void(ptreap::Ref, std::vector<std::pair<u32, QY>>&)> preorder =
      [&](ptreap::Ref t, std::vector<std::pair<u32, QY>>& out) {
        if (!t) return;
        out.emplace_back(t->piece.edge, t->piece.y0);
        preorder(t.left(), out);
        preorder(t.right(), out);
      };
  std::vector<std::pair<u32, QY>> p1, p2;
  preorder(t1, p1);
  preorder(t2, p2);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].first, p2[i].first);
    EXPECT_EQ(cmp(p1[i].second, p2[i].second), 0);
  }
}

TEST(PTreap, MaterializeDropsFloorAndCoalesces) {
  PArena arena;
  const auto segs = wide_segments(11, 4);
  ptreap::Ref t = ptreap::make_floor(arena);
  const PieceData r1[] = {PieceData{QY::of(0), QY::of(5), 1}};
  const PieceData r2[] = {PieceData{QY::of(5), QY::of(9), 1}};
  t = ptreap::replace_range(arena, t, QY::of(0), QY::of(5), r1, segs);
  t = ptreap::replace_range(arena, t, QY::of(5), QY::of(9), r2, segs);
  const Envelope e = ptreap::materialize(t);
  ASSERT_EQ(e.size(), 1u);  // coalesced
  EXPECT_EQ(e.piece(0).y0, QY::of(0));
  EXPECT_EQ(e.piece(0).y1, QY::of(9));
  EXPECT_EQ(e.piece(0).edge, 1u);
}

TEST(PTreap, ArenaResetRecyclesBlocksAcrossRebuilds) {
  PArena arena;
  const auto segs = wide_segments(17, 4);
  const auto build = [&] {
    ptreap::Ref t = ptreap::make_floor(arena);
    for (int i = 0; i < 512; ++i) {
      const PieceData p{QY::of(-900 + 3 * i), QY::of(-900 + 3 * i + 2), static_cast<u32>(i % 4)};
      t = ptreap::replace_range(arena, t, p.y0, p.y1, std::span(&p, 1), segs);
    }
    return t;
  };

  const ptreap::Ref cold = build();
  ptreap::validate(cold, segs);
  const u64 blocks = arena.allocated();
  const u64 nodes = arena.node_count();
  EXPECT_GT(blocks, 0u);

  // Reset, then rebuild the identical treap: the same node demand must be
  // served entirely from retained blocks — zero new heap blocks.
  arena.reset();
  const ptreap::Ref warm = build();
  ptreap::validate(warm, segs);
  EXPECT_EQ(arena.allocated(), blocks);
  EXPECT_EQ(arena.node_count(), nodes * 2);  // node_count accumulates across resets

  std::vector<PieceData> pieces;
  ptreap::collect(warm, pieces);
  EXPECT_EQ(pieces.size(), 512u * 2 + 1);
}

TEST(PTreap, NodeCountGrowsLogarithmicallyPerSplice) {
  PArena arena;
  const auto segs = wide_segments(13, 4);
  ptreap::Ref t = ptreap::make_floor(arena);
  // Many single-piece splices at distinct offsets.
  for (int i = 0; i < 256; ++i) {
    const PieceData p{QY::of(-900 + 7 * i), QY::of(-900 + 7 * i + 5), static_cast<u32>(i % 4)};
    t = ptreap::replace_range(arena, t, p.y0, p.y1, std::span(&p, 1), segs);
  }
  const double per_splice = static_cast<double>(arena.node_count()) / 256.0;
  // ~O(log n) path copies per splice; generous ceiling to avoid flakiness.
  EXPECT_LT(per_splice, 80.0);
  EXPECT_EQ(ptreap::count(t), 256u * 2 + 1);  // alternating piece/floor + tail
}

// A thread that allocates in many short-lived arenas (every engine a
// process creates owns some) must not keep anything per dead arena: its
// live heap after 4,096 arenas equals its live heap before them.
TEST(PArena, DeadArenasLeaveNoPerThreadState) {
#ifndef THSR_LIVE_HEAP_PROBE
  GTEST_SKIP() << "needs glibc mallinfo2 and the system allocator";
#else
  const auto churn = [](int arenas) {
    for (int i = 0; i < arenas; ++i) {
      PArena a;
      (void)a.alloc();
    }
  };
  churn(1);  // first-touch thread-local state (work counters, the slot memo)
  const std::size_t before = mallinfo2().uordblks;
  churn(4096);
  const std::size_t after = mallinfo2().uordblks;
  EXPECT_LE(after, before) << "4,096 dead arenas left " << after - before
                           << " live heap bytes on this thread";
#endif
}

}  // namespace
}  // namespace thsr

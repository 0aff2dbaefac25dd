/// Oracle tests: walk_transitions (the pruned persistent-profile descent)
/// against an independent linear-scan reference over the materialized piece
/// list, across random profiles and query segments.

#include <gtest/gtest.h>

#include <random>

#include "cg/profile_query.hpp"
#include "envelope/build.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

// Build a persistent profile = envelope of segs[ids] over the floor.
ptreap::Ref profile_of(PArena& arena, const Envelope& env, std::span<const Seg2> segs) {
  ptreap::Ref t = ptreap::make_floor(arena);
  for (const EnvPiece& p : env.pieces()) {
    const PieceData run{p.y0, p.y1, p.edge};
    t = ptreap::replace_range(arena, t, p.y0, p.y1, std::span(&run, 1), segs);
  }
  return t;
}

// Independent reference: same event semantics, plain linear scan.
int naive_transitions(ptreap::Ref t, const Seg2& s, const QY& from, const QY& to,
                      std::span<const Seg2> segs, std::vector<TransitionEvent>& out) {
  std::vector<PieceData> pieces;
  ptreap::collect(t, pieces);
  int state = 0;
  bool first = true;
  int initial = 0;
  for (const PieceData& p : pieces) {
    const QY lo = qmax(from, p.y0), hi = qmin(to, p.y1);
    if (!(lo < hi)) continue;
    const Seg2& q = resolve_seg(segs, p.edge);
    const int entry = cmp_value_near(s, q, lo, Side::After) > 0 ? +1 : -1;
    if (first) {
      initial = state = entry;
      first = false;
    } else if (entry != state) {
      out.push_back({lo, entry, p.edge, EventKind::Break});
      state = entry;
    }
    if (auto cr = crossing_in(s, q, lo, hi)) {
      state = -state;
      out.push_back({*cr, state, p.edge, EventKind::Cross});
    }
  }
  THSR_CHECK(!first);
  return initial;
}

void expect_same_events(const std::vector<TransitionEvent>& a,
                        const std::vector<TransitionEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(cmp(a[i].y, b[i].y), 0) << "event " << i;
    EXPECT_EQ(a[i].new_state, b[i].new_state) << "event " << i;
    EXPECT_EQ(a[i].profile_edge, b[i].profile_edge) << "event " << i;
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind)) << "event " << i;
  }
}

class OracleP : public ::testing::TestWithParam<std::tuple<u64, std::size_t>> {};

TEST_P(OracleP, WalkMatchesNaive) {
  const auto [seed, n] = GetParam();
  const auto segs = test::random_segments(seed, n, 800);
  const auto ids = test::iota_ids(n);
  const Envelope env = envelope_of(ids, segs);
  PArena arena;
  ptreap::Ref prof = profile_of(arena, env, segs);

  const auto queries = test::random_segments(seed * 31 + 7, 200, 800);
  for (const Seg2& s : queries) {
    const QY a = QY::of(s.u0), b = QY::of(s.u1);
    std::vector<TransitionEvent> got, expect;
    const int gi = walk_transitions(prof, s, a, b, segs, got);
    const int ei = naive_transitions(prof, s, a, b, segs, expect);
    EXPECT_EQ(gi, ei);
    expect_same_events(got, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleP,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                                            ::testing::Values(5u, 40u, 300u)),
                         [](const auto& info) {
                           return "s" + std::to_string(std::get<0>(info.param)) + "_n" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(OracleP, LibraryScanMatchesNaive) {
  const auto [seed, n] = GetParam();
  const auto segs = test::random_segments(seed + 1000, n, 800);
  const auto ids = test::iota_ids(n);
  const Envelope env = envelope_of(ids, segs);
  PArena arena;
  ptreap::Ref prof = profile_of(arena, env, segs);
  std::vector<PieceData> flat;
  ptreap::collect(prof, flat);

  const auto queries = test::random_segments(seed * 37 + 11, 120, 800);
  for (const Seg2& s : queries) {
    const QY a = QY::of(s.u0), b = QY::of(s.u1);
    std::vector<TransitionEvent> got, expect;
    const int gi = walk_transitions_scan(flat, s, a, b, segs, got);
    const int ei = naive_transitions(prof, s, a, b, segs, expect);
    EXPECT_EQ(gi, ei);
    expect_same_events(got, expect);
  }
}

// Integration invariant: splicing every segment's strictly-above runs into
// the profile, in any front-to-back order, reproduces exactly the global
// upper envelope (what phase 2's prefix versions converge to).
TEST(Oracle, IncrementalProfileEqualsGlobalEnvelope) {
  for (const u64 seed : {3ull, 4ull, 5ull}) {
    const auto segs = test::random_segments(seed, 120, 600);
    const auto ids = test::iota_ids(segs.size());
    PArena arena;
    ptreap::Ref prof = ptreap::make_floor(arena);
    std::vector<TransitionEvent> ev;
    for (const u32 e : ids) {
      const Seg2& s = segs[e];
      const QY a = QY::of(s.u0), b = QY::of(s.u1);
      ev.clear();
      int state = walk_transitions(prof, s, a, b, segs, ev);
      QY run0 = a;
      const auto splice = [&](const QY& from, const QY& to) {
        const PieceData piece{from, to, e};
        prof = ptreap::replace_range(arena, prof, from, to, std::span(&piece, 1), segs);
      };
      for (const TransitionEvent& t : ev) {
        if (t.new_state == +1) {
          run0 = t.y;
        } else if (state == +1) {
          splice(run0, t.y);
        }
        state = t.new_state;
      }
      if (state == +1) splice(run0, b);
    }
    const Envelope incremental = ptreap::materialize(prof);
    const Envelope direct = envelope_of(ids, segs);
    ASSERT_EQ(incremental.size(), direct.size()) << "seed " << seed;
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(incremental.piece(i).edge, direct.piece(i).edge) << i;
      EXPECT_EQ(cmp(incremental.piece(i).y0, direct.piece(i).y0), 0) << i;
      EXPECT_EQ(cmp(incremental.piece(i).y1, direct.piece(i).y1), 0) << i;
    }
  }
}

// The walk reads its initial state off the first piece it meets; on the
// bare floor that is the floor itself, and nothing changes after it.
TEST(Oracle, InitialStateAgainstFloorIsAbove) {
  PArena arena;
  std::vector<Seg2> segs{{-10, 5, 10, 5}};
  ptreap::Ref floor = ptreap::make_floor(arena);
  std::vector<TransitionEvent> ev;
  EXPECT_EQ(walk_transitions(floor, segs[0], QY::of(-10), QY::of(10), segs, ev), +1);
  EXPECT_TRUE(ev.empty());
}

TEST(Oracle, EventsOnKnownProfile) {
  // Profile: one tent over the floor; query passes through both slopes.
  std::vector<Seg2> segs{{-10, 0, 0, 20}, {0, 20, 10, 0}, {-12, 8, 12, 8}};
  PArena arena;
  const Envelope env = envelope_of(std::array<u32, 2>{0, 1}, segs);
  ptreap::Ref prof = profile_of(arena, env, segs);

  std::vector<TransitionEvent> ev;
  const int init = walk_transitions(prof, segs[2], QY::of(-12), QY::of(12), segs, ev);
  EXPECT_EQ(init, +1);  // starts on floor left of the tent: above
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].new_state, -1);  // dips under the rising slope at y=-6 (z=8)
  EXPECT_EQ(cmp(ev[0].y, QY::of(-6)), 0);
  EXPECT_EQ(ev[0].kind, EventKind::Cross);
  EXPECT_EQ(ev[0].profile_edge, 0u);
  EXPECT_EQ(ev[1].new_state, +1);  // re-emerges on the falling slope at y=6
  EXPECT_EQ(cmp(ev[1].y, QY::of(6)), 0);
  EXPECT_EQ(ev[1].profile_edge, 1u);
}

TEST(Oracle, BreakEventAtProfileDiscontinuity) {
  // Profile piece ends mid-air (drop to floor): state flips via Break.
  std::vector<Seg2> segs{{-10, 30, 0, 30}, {-12, 10, 12, 10}};
  PArena arena;
  const Envelope env = envelope_of(std::array<u32, 1>{0}, segs);
  ptreap::Ref prof = profile_of(arena, env, segs);
  std::vector<TransitionEvent> ev;
  const int init = walk_transitions(prof, segs[1], QY::of(-12), QY::of(12), segs, ev);
  // Walk starts at -12 on the floor: above; enters plateau at -10: below;
  // exits at 0 back onto floor: above.
  EXPECT_EQ(init, +1);
  ASSERT_GE(ev.size(), 1u);
  bool saw_drop = false;
  for (const auto& e : ev) {
    if (e.kind == EventKind::Break && e.new_state == +1 && cmp(e.y, QY::of(0)) == 0) {
      saw_drop = true;
      EXPECT_EQ(e.profile_edge, kFloorEdge);
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST(Oracle, StrictlyAboveAtPointQueries) {
  std::vector<Seg2> segs{{-10, 0, 0, 20}, {0, 20, 10, 0}};
  PArena arena;
  const Envelope env = envelope_of(std::array<u32, 2>{0, 1}, segs);
  ptreap::Ref prof = profile_of(arena, env, segs);
  EXPECT_TRUE(strictly_above_at(prof, QY::of(0), 21, segs));
  EXPECT_FALSE(strictly_above_at(prof, QY::of(0), 20, segs));  // tie = not above
  EXPECT_FALSE(strictly_above_at(prof, QY::of(0), 19, segs));
  EXPECT_TRUE(strictly_above_at(prof, QY::of(-5), 11, segs));
  EXPECT_FALSE(strictly_above_at(prof, QY::of(-5), 10, segs));
}

}  // namespace
}  // namespace thsr

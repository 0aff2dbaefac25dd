#pragma once
/// Shared helpers for the thsr test suite: deterministic RNG, random segment
/// soups, brute-force reference computations.

#include <random>
#include <vector>

#include "envelope/envelope.hpp"
#include "geometry/predicates.hpp"
#include "support/random_segments.hpp"
#include "support/terrain_families.hpp"

namespace thsr::test {

/// Shared terrain/DEM families (support/terrain_families.hpp), re-exported
/// so suites keep the short `test::` spelling.
using support::dense_staircase;
using support::GridFamily;
using support::kAllGridFamilies;
using support::make_asc_grid;
using support::make_family_terrain;

/// Deterministic RNG (never std::random_device in tests).
inline std::mt19937_64 rng(u64 seed) { return std::mt19937_64{seed}; }

/// Random non-vertical segments with integer coordinates in [-range, range]
/// (the shared generator, support/random_segments.hpp).
inline std::vector<Seg2> random_segments(u64 seed, std::size_t n, i64 range = 1000) {
  return support::random_segments(seed, n, range);
}

inline std::vector<u32> iota_ids(std::size_t n) {
  std::vector<u32> ids(n);
  for (u32 i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

/// Brute-force winner at (y, side): the live segment with maximal value,
/// earlier id winning ties (the front-wins convention, ids = depth order).
inline std::optional<u32> brute_top(std::span<const Seg2> segs, std::span<const u32> ids,
                                    const QY& y, Side side) {
  std::optional<u32> best;
  for (const u32 id : ids) {
    const Seg2& s = segs[id];
    const bool live = side == Side::After ? (cmp(y, s.u0) >= 0 && cmp(y, s.u1) < 0)
                                          : (cmp(y, s.u0) > 0 && cmp(y, s.u1) <= 0);
    if (!live) continue;
    if (!best) {
      best = id;
      continue;
    }
    const int c = cmp_value_near(s, segs[*best], y, side);
    if (c > 0) best = id;  // ties keep the earlier id: ids scanned in order
  }
  return best;
}

/// Check env == pointwise max of segs[ids] at all breakpoints (both sides)
/// and at every integer abscissa in [lo, hi].
inline void expect_envelope_exact(const Envelope& env, std::span<const Seg2> segs,
                                  std::span<const u32> ids, i64 lo, i64 hi);

}  // namespace thsr::test

// gtest-dependent part.
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace thsr::test {

/// A path in ::testing::TempDir() private to this process: `stem`, the
/// process id, then `ext`. Suites running at once (the asan and tsan
/// presets side by side, or two checkouts) never truncate each other's
/// files, which kills a reader that has one mapped with SIGBUS.
inline std::string temp_path(const std::string& stem, const std::string& ext = "") {
  return ::testing::TempDir() + "/" + stem + "_" + std::to_string(::getpid()) + ext;
}

inline void expect_envelope_exact(const Envelope& env, std::span<const Seg2> segs,
                                  std::span<const u32> ids, i64 lo, i64 hi) {
  env.validate(segs);
  const auto check_at = [&](const QY& y, Side side) {
    const auto expect = brute_top(segs, ids, y, side);
    const auto got = env.edge_at(y, side);
    if (expect.has_value() != got.has_value()) {
      FAIL() << "envelope coverage mismatch at y=" << to_string(y)
             << " side=" << (side == Side::After ? "after" : "before");
    }
    if (expect && got && *expect != *got) {
      // Distinct edges are fine iff values AND slopes tie exactly never —
      // the brute picks the earliest id; envelopes must match that winner
      // unless the two segments are collinear over the interval.
      EXPECT_TRUE(same_line(segs[*expect], segs[*got]))
          << "winner mismatch at y=" << to_string(y) << ": expect edge " << *expect << " got "
          << *got;
      EXPECT_EQ(cmp_value_near(segs[*expect], segs[*got], y, side), 0);
    }
  };
  for (const EnvPiece& p : env.pieces()) {
    check_at(p.y0, Side::After);
    check_at(p.y1, Side::Before);
  }
  for (i64 y = lo; y <= hi; ++y) {
    check_at(QY::of(y), Side::After);
    check_at(QY::of(y), Side::Before);
  }
}

}  // namespace thsr::test

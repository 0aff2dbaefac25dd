/// Resolution-bounded solve contract (core/bounded.hpp, DESIGN.md
/// section 1.12). The load-bearing property is differential: at matching
/// resolution the raster of a bounded solve is **bitwise** equal — ids,
/// depth, coverage, and the exact crossings/hit_samples counters — to the
/// raster of the exact solve AND to the brute-force ray-cast oracle, for
/// every algorithm, backend, and thread count; meanwhile k_pieces /
/// treap_nodes / envelope-piece work strictly drop on sub-pixel-dense
/// scenes. Degenerate budgets bracket the mode: a budget finer than every
/// staircase step prunes nothing (bit-identical map *and* counters), a
/// budget of very few columns still reproduces its raster bitwise. The
/// BoundedPrune predicate itself is property-tested against the raster's
/// exact sample lattice.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/hsr.hpp"
#include "raster/oracle.hpp"
#include "raster/raster.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

using raster::ImageRaster;
using raster::RasterOptions;

void expect_images_equal(const ImageRaster& a, const ImageRaster& b, const std::string& what) {
  ASSERT_EQ(a.width, b.width) << what;
  ASSERT_EQ(a.height, b.height) << what;
  EXPECT_EQ(a.ids, b.ids) << what << ": id maps differ";
  EXPECT_EQ(a.depth, b.depth) << what << ": depth maps differ";
  EXPECT_EQ(a.coverage, b.coverage) << what << ": coverage maps differ";
  EXPECT_EQ(a.hit_samples, b.hit_samples) << what << ": hit_samples differ";
}

HsrOptions bounded_opt(const Terrain& t, const RasterOptions& ropt, Algorithm a) {
  HsrOptions opt;
  opt.algorithm = a;
  opt.pixel_budget = raster::pixel_budget(t, ropt);
  return opt;
}

// ------------------------------------------------------------------ predicate

// sample_free must agree with a brute-force scan of the raster's exact
// sample ordinates, for random rational intervals built from random segment
// crossings (the same breakpoint population the solver prunes).
TEST(BoundedPrune, SampleFreeMatchesBruteForceLattice) {
  auto g = test::rng(2026);
  const auto segs = test::random_segments(77, 60, /*range=*/500);
  std::uniform_int_distribution<std::size_t> pick(0, segs.size() - 1);
  std::uniform_int_distribution<int> res(1, 64);
  const raster::ImageWindow win{-501, 500, 0, 1};  // odd y extent, like default_window
  for (int iter = 0; iter < 4000; ++iter) {
    const u32 n = static_cast<u32>(res(g));
    const BoundedPrune prune(PixelBudget{win.y_lo, win.y_hi, n});
    // Interval endpoints: crossings of random segment pairs (exact QY), or
    // integers; degenerate [y, y] intervals included.
    const auto breakpoint = [&]() {
      for (int tries = 0; tries < 8; ++tries) {
        const Seg2 &a = segs[pick(g)], &b = segs[pick(g)];
        if (auto cr = line_crossing(a, b)) return *cr;
      }
      return QY::of(std::uniform_int_distribution<i64>(-500, 500)(g));
    };
    QY y0 = breakpoint(), y1 = breakpoint();
    if (cmp(y1, y0) < 0) std::swap(y0, y1);
    bool has_sample = false;
    for (u32 i = 0; i < n && !has_sample; ++i) {
      const QY s = raster::sample_y(win, n, 1, i);
      has_sample = cmp(y0, s) <= 0 && cmp(s, y1) <= 0;
    }
    EXPECT_EQ(prune.sample_free(y0, y1), !has_sample)
        << "n=" << n << " [" << to_string(y0) << ", " << to_string(y1) << "]";
  }
}

// Every sample ordinate is inside its own degenerate interval; the open gap
// between adjacent samples is sample-free; [s_i, s_{i+1}] is not.
TEST(BoundedPrune, LatticeBoundaryCases) {
  const raster::ImageWindow win{-7, 10, 0, 1};
  for (const u32 n : {1u, 2u, 3u, 32u, 4096u}) {
    const BoundedPrune prune(PixelBudget{win.y_lo, win.y_hi, n});
    for (u32 i = 0; i < n; i += (n > 64 ? 97 : 1)) {
      const QY s = raster::sample_y(win, n, 1, i);
      EXPECT_FALSE(prune.sample_free(s, s)) << "n=" << n << " i=" << i;
      if (i + 1 < n) {
        const QY t = raster::sample_y(win, n, 1, i + 1);
        EXPECT_FALSE(prune.sample_free(s, t));
        // Strictly inside the gap: midpoint of (s, t) with exact arithmetic.
        const QY mid{s.p * t.q + t.p * s.q, 2 * s.q * t.q};
        EXPECT_TRUE(prune.sample_free(mid, mid));
      }
    }
    // Entirely left / right of the lattice.
    EXPECT_TRUE(prune.sample_free(QY::of(-1000), QY::of(win.y_lo)));
    EXPECT_TRUE(prune.sample_free(QY::of(win.y_hi), QY::of(1000)));
    // Spanning the whole window contains every sample.
    EXPECT_FALSE(prune.sample_free(QY::of(win.y_lo), QY::of(win.y_hi)));
  }
}

TEST(BoundedPrune, RejectsInvalidBudgets) {
  EXPECT_THROW(BoundedPrune(PixelBudget{5, 5, 8}), std::invalid_argument);
  EXPECT_THROW(BoundedPrune(PixelBudget{0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(BoundedPrune(PixelBudget{0, 1, kMaxBudgetSamples + 1}), std::invalid_argument);
  EXPECT_THROW(BoundedPrune(PixelBudget{-kMaxBudgetY - 1, 1, 8}), std::invalid_argument);
  EXPECT_THROW(BoundedPrune(PixelBudget{0, kMaxBudgetY + 1, 8}), std::invalid_argument);
  // Rebased stream windows sit far from the origin: legal up to the bound.
  EXPECT_NO_THROW(BoundedPrune(PixelBudget{-(i64{1} << 40), 1, 8}));
  const BoundedPrune widest(PixelBudget{-kMaxBudgetY, kMaxBudgetY, kMaxBudgetSamples});
  // The widest budget still decides section-5 breakpoints exactly (the
  // mul128 overflow checks of a debug build watch every product here).
  const QY far{(i128{1} << 67) - 1, (i128{1} << 45) - 1};
  const QY near{-(i128{1} << 67) + 1, (i128{1} << 45) - 1};
  EXPECT_TRUE(widest.sample_free(near, far));  // a 2^23-wide sliver of a 2^61 window
  EXPECT_FALSE(widest.sample_free(QY::of(-kMaxBudgetY), QY::of(kMaxBudgetY)));
}

// sample_free is translation invariant: shifting window and interval by
// the same integer d (up to +-2^53, the rebase offsets of tall streamed
// grids) never changes the answer, and both agree with a brute-force scan
// of the raster's sample lattice. This is what lets a streamed slab prune
// against the global lattice shifted onto its rebased coordinates.
TEST(BoundedPrune, SampleFreeIsTranslationInvariant) {
  auto g = test::rng(4053);
  const auto segs = test::random_segments(91, 60, /*range=*/kMaxCoord / 2);
  std::uniform_int_distribution<std::size_t> pick(0, segs.size() - 1);
  std::uniform_int_distribution<int> res(1, 48);
  std::uniform_int_distribution<i64> shift(-(i64{1} << 53), i64{1} << 53);
  std::uniform_int_distribution<i64> lo(-kMaxCoord, kMaxCoord);
  std::uniform_int_distribution<i64> extent(1, 4 * kMaxCoord);
  const auto breakpoint = [&]() {
    for (int tries = 0; tries < 8; ++tries) {
      const Seg2 &a = segs[pick(g)], &b = segs[pick(g)];
      if (auto cr = line_crossing(a, b)) return *cr;
    }
    return QY::of(lo(g));
  };
  const auto shifted = [](const QY& y, i64 d) { return QY(y.p + mul128(d, y.q), y.q); };
  for (int iter = 0; iter < 3000; ++iter) {
    const u32 n = static_cast<u32>(res(g));
    const i64 y_lo = lo(g), y_hi = y_lo + extent(g);
    const i64 d = shift(g);
    QY y0 = breakpoint(), y1 = breakpoint();
    if (cmp(y1, y0) < 0) std::swap(y0, y1);
    // Local frame: the slab's small coordinates against the shifted window.
    const bool local = BoundedPrune(PixelBudget{y_lo - d, y_hi - d, n}).sample_free(y0, y1);
    // Global frame: the unshifted window against the interval moved by d.
    const QY g0 = shifted(y0, d), g1 = shifted(y1, d);
    const bool global = BoundedPrune(PixelBudget{y_lo, y_hi, n}).sample_free(g0, g1);
    const raster::ImageWindow win{y_lo, y_hi, 0, 1};
    bool has_sample = false;
    for (u32 i = 0; i < n && !has_sample; ++i) {
      const QY s = raster::sample_y(win, n, 1, i);
      has_sample = cmp(g0, s) <= 0 && cmp(s, g1) <= 0;
    }
    EXPECT_EQ(local, global) << "n=" << n << " d=" << d;
    EXPECT_EQ(global, !has_sample) << "n=" << n << " d=" << d;
  }
}

// ------------------------------------------------------- raster identity

/// Solve exact + bounded with `alg`, rasterize both at `ropt`, and demand
/// bitwise identity; returns (exact stats, bounded stats) for counter
/// assertions. Also checks the oracle when `against_oracle`.
std::pair<HsrStats, HsrStats> expect_bounded_raster_identical(const Terrain& t,
                                                              const RasterOptions& ropt,
                                                              Algorithm alg, bool against_oracle,
                                                              const std::string& label) {
  const HsrResult exact = hidden_surface_removal(t, HsrOptions{.algorithm = alg});
  const HsrResult bounded = hidden_surface_removal(t, bounded_opt(t, ropt, alg));
  const ImageRaster img_exact = raster::rasterize(t, exact.map, ropt);
  const ImageRaster img_bounded = raster::rasterize(t, bounded.map, ropt);
  expect_images_equal(img_bounded, img_exact, label + " (bounded vs exact)");
  EXPECT_EQ(img_bounded.crossings, img_exact.crossings) << label;
  if (against_oracle) {
    const ImageRaster ref = raster::raycast_reference(t, ropt);
    expect_images_equal(img_bounded, ref, label + " (bounded vs oracle)");
  }
  return {exact.stats, bounded.stats};
}

constexpr Algorithm kAllAlgorithms[] = {Algorithm::Reference, Algorithm::Sequential,
                                        Algorithm::Parallel};

TEST(Bounded, RasterIdentityAcrossFamiliesAndResolutions) {
  for (const Family f : kAllFamilies) {
    const Terrain t = test::make_family_terrain(f, 12, /*seed=*/3, /*shear=*/true,
                                                /*jitter=*/true);
    for (const auto& [w, h, s] : {std::tuple<u32, u32, u32>{24, 18, 1},
                                  std::tuple<u32, u32, u32>{64, 48, 1},
                                  std::tuple<u32, u32, u32>{32, 24, 2}}) {
      const RasterOptions ropt{.width = w, .height = h, .supersample = s};
      for (const Algorithm alg : kAllAlgorithms) {
        // Oracle (brute force) only on the cheapest resolution per family.
        expect_bounded_raster_identical(
            t, ropt, alg, /*against_oracle=*/w == 24,
            std::string(family_name(f)) + "/" + algorithm_name(alg) + "/w" + std::to_string(w) +
                "s" + std::to_string(s));
      }
    }
  }
}

TEST(Bounded, CountersDropOnDenseStaircase) {
  const Terrain t = test::dense_staircase(40, /*seed=*/5);
  const RasterOptions ropt{.width = 32, .height = 24};
  for (const Algorithm alg : {Algorithm::Sequential, Algorithm::Parallel}) {
    const auto [exact, bounded] = expect_bounded_raster_identical(
        t, ropt, alg, /*against_oracle=*/false,
        std::string("dense/") + algorithm_name(alg));
    // Strict decrease, not just <=: the family is built so most pieces are
    // sub-pixel at this width.
    EXPECT_LT(bounded.k_pieces, exact.k_pieces) << algorithm_name(alg);
    EXPECT_LT(bounded.treap_nodes, exact.treap_nodes) << algorithm_name(alg);
    if (alg == Algorithm::Parallel) {
      EXPECT_LT(bounded.work[Op::EnvPiece], exact.work[Op::EnvPiece]);
      EXPECT_LT(bounded.phase1_pieces, exact.phase1_pieces);
    }
  }
  // Reference has no treap; its k_pieces still drops.
  const auto [exact_r, bounded_r] = expect_bounded_raster_identical(
      t, ropt, Algorithm::Reference, /*against_oracle=*/false, "dense/reference");
  EXPECT_LT(bounded_r.k_pieces, exact_r.k_pieces);
}

TEST(Bounded, RandomizedGridsBackendsAndThreads) {
  auto g = test::rng(99);
  std::uniform_int_distribution<u32> grid(8, 20);
  std::uniform_int_distribution<u64> seed(1, 1u << 20);
  std::uniform_int_distribution<int> fam(0, 5);
  for (int iter = 0; iter < 4; ++iter) {
    const Family f = kAllFamilies[fam(g)];
    const Terrain t = test::make_family_terrain(f, grid(g), seed(g));
    const RasterOptions ropt{.width = 40, .height = 30, .supersample = iter % 2 ? 2u : 1u};
    const HsrResult exact = hidden_surface_removal(t);
    const ImageRaster img_exact = raster::rasterize(t, exact.map, ropt);
    // The bounded map and counters must keep the backend/p determinism
    // contract: identical map bits and work counters for a fixed algorithm.
    const HsrResult canon = hidden_surface_removal(t, bounded_opt(t, ropt, Algorithm::Parallel));
    const ImageRaster img_canon = raster::rasterize(t, canon.map, ropt);
    expect_images_equal(img_canon, img_exact, "canon vs exact");
    for (const par::Backend b : par::available_backends()) {
      for (const int p : {1, 3}) {
        HsrOptions opt = bounded_opt(t, ropt, Algorithm::Parallel);
        opt.backend = b;
        opt.threads = p;
        const HsrResult r = hidden_surface_removal(t, opt);
        const std::string label =
            std::string(par::backend_name(b)) + "/p" + std::to_string(p);
        EXPECT_FALSE(canon.map.first_difference(r.map).has_value()) << label;
        EXPECT_TRUE(canon.stats.work == r.stats.work) << label;
        EXPECT_EQ(canon.stats.treap_nodes, r.stats.treap_nodes) << label;
        EXPECT_EQ(canon.stats.k_pieces, r.stats.k_pieces) << label;
      }
    }
  }
}

// ------------------------------------------------------------- degenerates

// Budget finer than any staircase step: nothing is sample-free at solver
// scale, so the bounded solve must be bit-identical to the exact solve —
// map AND counters.
TEST(Bounded, FinestBudgetIsExactIncludingCounters) {
  // Every breakpoint gap of this terrain is far wider than the 4096-sample
  // spacing, so no interval anywhere in the pipeline is sample-free.
  const Terrain t = test::make_family_terrain(Family::Fbm, 6, /*seed=*/7);
  for (const Algorithm alg : kAllAlgorithms) {
    const HsrResult exact = hidden_surface_removal(t, HsrOptions{.algorithm = alg});
    HsrOptions opt;
    opt.algorithm = alg;
    opt.pixel_budget = raster::pixel_budget(t, RasterOptions{.width = 4096, .height = 4});
    const HsrResult bounded = hidden_surface_removal(t, opt);
    EXPECT_FALSE(exact.map.first_difference(bounded.map).has_value()) << algorithm_name(alg);
    EXPECT_EQ(exact.stats.k_pieces, bounded.stats.k_pieces) << algorithm_name(alg);
    EXPECT_EQ(exact.stats.treap_nodes, bounded.stats.treap_nodes) << algorithm_name(alg);
    EXPECT_TRUE(exact.stats.work == bounded.stats.work) << algorithm_name(alg);
  }
}

// Budget coarser than one triangle: a handful of columns across a dense
// terrain. Almost everything prunes, yet the tiny raster is still bitwise
// equal to the exact pipeline's and the oracle's.
TEST(Bounded, CoarserThanTriangleBudget) {
  const Terrain t = test::dense_staircase(24, /*seed=*/2);
  const RasterOptions ropt{.width = 3, .height = 2};
  for (const Algorithm alg : kAllAlgorithms) {
    const auto [exact, bounded] = expect_bounded_raster_identical(
        t, ropt, alg, /*against_oracle=*/true, std::string("w3/") + algorithm_name(alg));
    EXPECT_LT(bounded.k_pieces, exact.k_pieces) << algorithm_name(alg);
  }
}

// A bounded solve through the session engine (warm workspaces, batches)
// behaves like the one-shot shim.
TEST(Bounded, EngineWarmSolveAndBatch) {
  const Terrain t = test::dense_staircase(24, /*seed=*/8);
  const RasterOptions ropt{.width = 32, .height = 24};
  HsrEngine engine;
  engine.prepare(t);
  const HsrOptions opt = bounded_opt(t, ropt, Algorithm::Parallel);
  const HsrResult cold = engine.solve(opt);
  const HsrResult warm = engine.solve(opt);
  EXPECT_FALSE(cold.map.first_difference(warm.map).has_value());
  EXPECT_TRUE(cold.stats.work == warm.stats.work);
  const HsrOptions batch_opts[] = {opt, HsrOptions{.algorithm = Algorithm::Parallel}, opt};
  const auto results = engine.solve_batch(batch_opts);
  EXPECT_FALSE(cold.map.first_difference(results[0].map).has_value());
  EXPECT_FALSE(cold.map.first_difference(results[2].map).has_value());
  const ImageRaster a = raster::rasterize(t, results[0].map, ropt);
  const ImageRaster b = raster::rasterize(t, results[1].map, ropt);
  expect_images_equal(a, b, "batch bounded vs batch exact");
}

}  // namespace
}  // namespace thsr

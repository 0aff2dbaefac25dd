/// Session-engine contract (src/core/engine.hpp): a warm HsrEngine solve is
/// bit-identical — visibility map and work counters — to a fresh one-shot
/// hidden_surface_removal() with the same options, across all algorithms,
/// both phase-2 oracles, and every available backend; solve_batch matches a
/// sequential loop; prepare() on a second terrain fully evicts the first;
/// warm solves recycle arena blocks instead of allocating; concurrent
/// callers share one prepared engine; and executor settings stay on the
/// thread that set them.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

Terrain make(Family f, u32 grid, u64 seed = 1) {
  GenOptions opt;
  opt.family = f;
  opt.grid = grid;
  opt.seed = seed;
  return make_terrain(opt);
}

// Map + stats equality at the bit-identical level the engine guarantees.
void expect_identical(const HsrResult& got, const HsrResult& want, const std::string& label) {
  const auto diff = want.map.first_difference(got.map);
  EXPECT_FALSE(diff.has_value()) << label << ": maps differ at edge " << *diff;
  EXPECT_EQ(got.stats.work, want.stats.work) << label << ": work counters differ";
  EXPECT_EQ(got.stats.k_pieces, want.stats.k_pieces) << label;
  EXPECT_EQ(got.stats.k_crossings, want.stats.k_crossings) << label;
  EXPECT_EQ(got.stats.treap_nodes, want.stats.treap_nodes) << label;
  EXPECT_EQ(got.stats.phase1_pieces, want.stats.phase1_pieces) << label;
  EXPECT_EQ(got.stats.n_edges, want.stats.n_edges) << label;
  EXPECT_EQ(got.stats.n_slivers, want.stats.n_slivers) << label;
  EXPECT_EQ(got.stats.depth_constraints, want.stats.depth_constraints) << label;
  ASSERT_EQ(got.stats.layers.size(), want.stats.layers.size()) << label;
  for (std::size_t l = 0; l < want.stats.layers.size(); ++l) {
    const LayerStats &g = got.stats.layers[l], &w = want.stats.layers[l];
    EXPECT_EQ(g.nodes, w.nodes) << label << " layer " << l;
    EXPECT_EQ(g.pieces_consumed, w.pieces_consumed) << label << " layer " << l;
    EXPECT_EQ(g.events, w.events) << label << " layer " << l;
    EXPECT_EQ(g.splices, w.splices) << label << " layer " << l;
    EXPECT_EQ(g.treap_nodes, w.treap_nodes) << label << " layer " << l;
    EXPECT_EQ(g.profile_pieces, w.profile_pieces) << label << " layer " << l;
  }
}

std::vector<HsrOptions> mixed_options() {
  return {
      {.algorithm = Algorithm::Parallel},
      {.algorithm = Algorithm::Sequential},
      {.algorithm = Algorithm::Reference},
      {.algorithm = Algorithm::Parallel, .phase2_oracle = Phase2Oracle::MaterializedScan},
      // Layer stats must stay per-item exact even when batch items run
      // concurrently (thread-local counter attribution).
      {.algorithm = Algorithm::Parallel, .collect_layer_stats = true},
      {.algorithm = Algorithm::Parallel},  // repeat: second warm run of the same config
  };
}

TEST(Engine, WarmSolvesMatchOneShotAcrossAlgorithmsAndOracles) {
  const Terrain t = make(Family::Fbm, 16);
  HsrEngine engine;
  engine.prepare(t);
  for (const HsrOptions& opt : mixed_options()) {
    const HsrResult fresh = hidden_surface_removal(t, opt);
    const HsrResult warm = engine.solve(opt);
    expect_identical(warm, fresh, std::string("algorithm ") + algorithm_name(opt.algorithm));
  }
}

TEST(Engine, WarmSolvesMatchOneShotAcrossBackends) {
  const Terrain t = make(Family::TerraceBack, 12);
  HsrEngine engine;
  engine.prepare(t);
  for (const par::Backend b : par::available_backends()) {
    HsrOptions opt{.algorithm = Algorithm::Parallel, .threads = 2, .backend = b};
    const HsrResult fresh = hidden_surface_removal(t, opt);
    const HsrResult warm = engine.solve(opt);
    expect_identical(warm, fresh, std::string("backend ") + par::backend_name(b));
  }
}

TEST(Engine, SolveBatchMatchesSequentialLoop) {
  const Terrain t = make(Family::Fbm, 14, 2);
  const std::vector<HsrOptions> opts = mixed_options();

  HsrEngine loop_engine;
  loop_engine.prepare(t);
  std::vector<HsrResult> loop;
  loop.reserve(opts.size());
  for (const HsrOptions& o : opts) loop.push_back(loop_engine.solve(o));

  HsrEngine batch_engine;
  batch_engine.prepare(t);
  const std::vector<HsrResult> batch = batch_engine.solve_batch(opts);

  ASSERT_EQ(batch.size(), opts.size());
  for (std::size_t i = 0; i < opts.size(); ++i) {
    expect_identical(batch[i], loop[i], "batch item " + std::to_string(i));
  }
}

TEST(Engine, SecondPrepareFullyEvictsFirstTerrain) {
  const Terrain t1 = make(Family::Fbm, 14, 1);
  const Terrain t2 = make(Family::Valley, 10, 7);
  HsrEngine engine;
  engine.prepare(t1);
  (void)engine.solve({.algorithm = Algorithm::Parallel});
  engine.prepare(t2);
  EXPECT_EQ(engine.terrain(), &t2);
  for (const Algorithm a : {Algorithm::Parallel, Algorithm::Sequential, Algorithm::Reference}) {
    const HsrOptions opt{.algorithm = a};
    expect_identical(engine.solve(opt), hidden_surface_removal(t2, opt),
                     std::string("post-evict ") + algorithm_name(a));
  }
}

TEST(Engine, WarmSolveAllocatesNoNewArenaBlocks) {
  const Terrain t = make(Family::Fbm, 20);
  HsrEngine engine;
  engine.prepare(t);
  for (const Algorithm a : {Algorithm::Parallel, Algorithm::Sequential}) {
    // threads=1: block counts — unlike work counters — depend on which
    // workers happen to allocate, so only serial runs repeat exactly.
    const HsrOptions opt{.algorithm = a, .threads = 1};
    (void)engine.solve(opt);  // cold: sizes the arena
    const u64 blocks = engine.arena_blocks();
    const u64 nodes_before = engine.arena_nodes();
    (void)engine.solve(opt);  // warm: must refill retained blocks only
    EXPECT_EQ(engine.arena_blocks(), blocks)
        << algorithm_name(a) << ": warm solve allocated new arena blocks";
    EXPECT_GT(engine.arena_nodes(), nodes_before);  // it did rebuild the treap
  }
}

// A Sequential solve splices in the treap's single-version mode: every node
// it supersedes is reused, so the solve holds its live profile — far below
// one 2^14-node block on each g96 family — and not its history (92,762
// nodes on fbm, 771,572 on terrace_back), while counting the same nodes as
// a one-shot.
TEST(Engine, WarmSequentialSolveHoldsOneArenaBlock) {
  for (const Family f : {Family::Fbm, Family::TerraceBack, Family::RidgeFront}) {
    const Terrain t = make(f, 96, 5);
    const HsrOptions opt{.algorithm = Algorithm::Sequential, .threads = 1};
    const HsrResult one_shot = hidden_surface_removal(t, opt);
    HsrEngine engine;
    engine.prepare(t);
    (void)engine.solve(opt);
    const HsrResult warm = engine.solve(opt);
    EXPECT_EQ(engine.arena_blocks(), 1u) << "family " << static_cast<int>(f);
    EXPECT_EQ(warm.stats.treap_nodes, one_shot.stats.treap_nodes)
        << "family " << static_cast<int>(f);
  }
}

// The free list a Sequential solve leaves behind must not leak into the
// next solve of the same workspace: Parallel keeps full persistence.
TEST(Engine, ParallelAfterSequentialMatchesFreshSolve) {
  const Terrain t = make(Family::TerraceBack, 24, 3);
  HsrEngine engine;
  engine.prepare(t);
  for (const int threads : {1, 2}) {
    const HsrOptions par_opt{.algorithm = Algorithm::Parallel, .threads = threads};
    (void)engine.solve({.algorithm = Algorithm::Sequential, .threads = threads});
    expect_identical(engine.solve(par_opt), hidden_surface_removal(t, par_opt),
                     "parallel after sequential, threads " + std::to_string(threads));
  }
}

TEST(Engine, RecycledResultStorageYieldsIdenticalNextSolve) {
  const Terrain t = make(Family::Spikes, 14);
  const HsrOptions opt{.algorithm = Algorithm::Parallel};
  const HsrResult fresh = hidden_surface_removal(t, opt);
  HsrEngine engine;
  engine.prepare(t);
  HsrResult first = engine.solve(opt);
  expect_identical(first, fresh, "pre-recycle");
  engine.recycle(std::move(first));
  expect_identical(engine.solve(opt), fresh, "post-recycle");
}

TEST(Engine, SolveRequiresPrepare) {
  HsrEngine engine;
  EXPECT_FALSE(engine.prepared());
  EXPECT_EQ(engine.terrain(), nullptr);
  EXPECT_THROW((void)engine.solve(), std::logic_error);
  const std::vector<HsrOptions> opts(2);
  EXPECT_THROW((void)engine.solve_batch(opts), std::logic_error);
  // An unprepared base has no order to transfer.
  const Terrain t = make(Family::Fbm, 6);
  HsrEngine other;
  EXPECT_THROW(other.prepare_with_order_of(t, engine), std::logic_error);
  EXPECT_FALSE(other.prepared());
}

// Four threads share one freshly prepared engine — no warm-up solve, no
// pre-build call. Every solve leases its own workspace and, unless it is a
// Parallel solve that forks, counts from its own thread, so every map and
// counter set equals a one-shot solve's. The default algorithm at
// threads = 4 never forks either, so it must count only its own work too.
TEST(Engine, ConcurrentSolvesShareOnePreparedEngine) {
  const Terrain t = make(Family::Fbm, 12, 5);
  for (const HsrOptions opt :
       {HsrOptions{.algorithm = Algorithm::Parallel, .threads = 1}, HsrOptions{.threads = 4}}) {
    const HsrResult want = hidden_surface_removal(t, opt);
    HsrEngine engine;
    engine.prepare(t);
    constexpr int kThreads = 4, kSolves = 25;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < kThreads; ++c) {
      callers.emplace_back([&] {
        for (int i = 0; i < kSolves; ++i) {
          const HsrResult got = engine.solve(opt);
          if (want.map.first_difference(got.map).has_value() ||
              !(got.stats.work == want.stats.work) || got.stats.k_pieces != want.stats.k_pieces ||
              got.stats.treap_nodes != want.stats.treap_nodes ||
              got.stats.phase1_pieces != want.stats.phase1_pieces) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : callers) th.join();
    EXPECT_EQ(mismatches.load(), 0) << algorithm_name(opt.algorithm) << " threads=" << opt.threads;
  }
}

TEST(ScopedConfig, RestoresThreadsAndBackendOnUnwind) {
  const int threads0 = par::max_threads();
  const par::Backend backend0 = par::backend();
  try {
    const par::ScopedConfig cfg(threads0 + 3, par::Backend::Pool);
    EXPECT_EQ(par::max_threads(), threads0 + 3);
    EXPECT_EQ(par::backend(), par::Backend::Pool);
    {
      // Nested scopes restore the enclosing scope's values, not the default.
      const par::ScopedConfig nested(1, par::Backend::Serial);
      EXPECT_EQ(par::max_threads(), 1);
      EXPECT_EQ(par::backend(), par::Backend::Serial);
      EXPECT_TRUE(par::runs_inline());
    }
    EXPECT_EQ(par::max_threads(), threads0 + 3);
    EXPECT_EQ(par::backend(), par::Backend::Pool);
    throw std::runtime_error("mid-solve failure");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(par::max_threads(), threads0);
  EXPECT_EQ(par::backend(), backend0);
}

// Thread A opens a scope, thread B opens another, A closes, B closes — the
// interleaving under which process-wide settings would leave A's worker
// count behind for every thread. Each scope governs only its own thread.
TEST(ScopedConfig, StaysOnItsThread) {
  const int threads0 = par::max_threads();
  const par::Backend backend0 = par::backend();
  std::latch a_open(1), b_open(1), a_closed(1);
  int a_saw = 0, b_saw = 0, b_after = 0;
  std::thread a([&] {
    {
      const par::ScopedConfig cfg(threads0 + 1, par::Backend::Pool);
      a_saw = par::max_threads();
      a_open.count_down();
      b_open.wait();
    }
    a_closed.count_down();
  });
  std::thread b([&] {
    a_open.wait();
    {
      const par::ScopedConfig cfg(threads0 + 2, par::Backend::Serial);
      b_saw = par::max_threads();
      b_open.count_down();
      a_closed.wait();
      b_after = par::max_threads();
    }
  });
  a_open.wait();
  EXPECT_EQ(par::max_threads(), threads0);  // A's scope is not the main thread's
  EXPECT_EQ(par::backend(), backend0);
  b_open.wait();
  EXPECT_EQ(par::max_threads(), threads0);
  EXPECT_EQ(par::backend(), backend0);
  a.join();
  b.join();
  EXPECT_EQ(a_saw, threads0 + 1);
  EXPECT_EQ(b_saw, threads0 + 2);
  EXPECT_EQ(b_after, threads0 + 2);  // A closing did not touch B's scope
  EXPECT_EQ(par::max_threads(), threads0);
  EXPECT_EQ(par::backend(), backend0);
}

}  // namespace
}  // namespace thsr

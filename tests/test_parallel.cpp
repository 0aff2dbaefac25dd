/// Fork-join executor tests across both backends and several thread
/// counts: parallel_for / fan_items / fork_join coverage, work counters,
/// and the native work-stealing pool (nesting, strict-serial mode,
/// oversubscription, fixed-chunk loops, concurrent external callers,
/// resizing).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "parallel/backend.hpp"
#include "parallel/pool.hpp"
#include "parallel/work_depth.hpp"

namespace thsr {
namespace {

/// Leaf count of a binary fork_join recursion over [lo, hi).
i64 count_leaves(i64 lo, i64 hi) {
  if (hi - lo <= 1) return 1;
  const i64 mid = lo + (hi - lo) / 2;
  i64 a = 0, b = 0;
  par::fork_join([&] { a = count_leaves(lo, mid); }, [&] { b = count_leaves(mid, hi); });
  return a + b;
}

/// Fixture selecting a (backend, thread count) pair for the test body's
/// thread; the scope restores the previous settings afterwards.
class ParallelP : public ::testing::TestWithParam<std::tuple<par::Backend, int>> {
 protected:
  const par::ScopedConfig cfg_{std::get<1>(GetParam()), std::get<0>(GetParam())};
};

TEST_P(ParallelP, ParallelForCoversAllIndices) {
  const i64 n = 100'000;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(n, [&](i64 i) { hits[static_cast<std::size_t>(i)].fetch_add(1); });
  for (i64 i = 0; i < n; ++i) ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST_P(ParallelP, NestedForkJoinInsideParallelFor) {
  // Every iteration forks a private two-branch task pair: the pool must
  // support fork_join from inside a parallel_for region.
  const i64 n = 2'000;
  std::atomic<i64> left{0}, right{0};
  par::parallel_for(
      n,
      [&](i64) {
        par::fork_join([&] { left.fetch_add(1, std::memory_order_relaxed); },
                       [&] { right.fetch_add(1, std::memory_order_relaxed); });
      },
      /*grain=*/64);
  EXPECT_EQ(left.load(), n);
  EXPECT_EQ(right.load(), n);
}

TEST_P(ParallelP, DeepForkJoinRecursion) {
  // Binary task recursion to depth ~2^12 leaves: exercises deque growth and
  // the help-while-joining path.
  i64 total = 0;
  par::run_root_task([&] { total = count_leaves(0, 4096); });
  EXPECT_EQ(total, 4096);
}

TEST_P(ParallelP, FanItemsRunsEveryItemOnce) {
  for (const std::size_t n : {0ul, 1ul, 2ul, 7ul, 64ul}) {
    std::vector<std::atomic<int>> hits(n);
    par::fan_items(n, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
  }
}

TEST_P(ParallelP, FanItemsDegradesInsideParallelRegions) {
  // Batch dispatch from inside an existing region must fall back to the
  // sequential loop instead of opening a nested root region.
  std::atomic<i64> total{0};
  par::run_root_task([&] {
    par::fan_items(16, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  });
  EXPECT_EQ(total.load(), 16);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ParallelP,
    ::testing::Combine(::testing::ValuesIn(par::available_backends()), ::testing::Values(1, 2, 4)),
    [](const auto& info) {
      return std::string(par::backend_name(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param));
    });

TEST(WorkDepth, CountersAccumulateAcrossThreads) {
  work::reset();
  par::parallel_for(10'000, [&](i64) { work::count(Op::Crossing); }, 16);
  const Counters c = work::snapshot();
  EXPECT_EQ(c[Op::Crossing], 10'000u);
  work::reset();
  EXPECT_EQ(work::snapshot()[Op::Crossing], 0u);
}

TEST(WorkDepth, CountersSeePoolWorkerThreads) {
  // Pool workers register their thread-local buckets lazily on first
  // count(); snapshot() must see work done on them.
  const par::ScopedConfig cfg(4, par::Backend::Pool);
  work::reset();
  par::parallel_for(50'000, [&](i64) { work::count(Op::OracleStep); }, 16);
  EXPECT_EQ(work::snapshot()[Op::OracleStep], 50'000u);
}

TEST(Backend, ForkJoinRunsBothBranches) {
  int a = 0, b = 0;
  par::run_root_task([&] {
    par::fork_join([&] { a = 1; }, [&] { b = 2; });
  });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Backend, ThreadControl) {
  const par::ScopedConfig cfg(3, std::nullopt);
  EXPECT_EQ(par::max_threads(), 3);
}

TEST(Backend, NamesParseAndSelection) {
  using par::Backend;
  EXPECT_STREQ(par::backend_name(Backend::Serial), "serial");
  EXPECT_STREQ(par::backend_name(Backend::Pool), "pool");
  EXPECT_EQ(par::parse_backend("serial"), Backend::Serial);
  EXPECT_EQ(par::parse_backend("pool"), Backend::Pool);
  EXPECT_EQ(par::parse_backend("POOL"), std::nullopt);
  EXPECT_EQ(par::parse_backend(""), std::nullopt);
  for (const par::Backend b : par::available_backends()) {
    const par::ScopedConfig cfg(0, b);
    EXPECT_EQ(par::backend(), b);
  }
}

TEST(Backend, SetThreadsOneIsStrictlySerial) {
  // The contract `threads = 1 == serial execution on the calling thread`
  // must hold on every backend: no region is opened, no worker touched.
  const auto self = std::this_thread::get_id();
  for (const par::Backend b : par::available_backends()) {
    const par::ScopedConfig cfg(1, b);
    int on_other_thread = 0;
    par::parallel_for(10'000, [&](i64) {
      if (std::this_thread::get_id() != self || par::in_parallel()) ++on_other_thread;
    });
    par::run_root_task([&] {
      par::fork_join([&] { if (std::this_thread::get_id() != self) ++on_other_thread; },
                     [&] { if (std::this_thread::get_id() != self) ++on_other_thread; });
    });
    EXPECT_EQ(on_other_thread, 0) << par::backend_name(b);
  }
}

TEST(Pool, OversubscriptionBeyondHardwareConcurrency) {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const par::ScopedConfig cfg(4 * hw, par::Backend::Pool);
  i64 leaves = 0;
  par::run_root_task([&] { leaves = count_leaves(0, 1 << 14); });
  EXPECT_EQ(leaves, 1 << 14);
  std::atomic<i64> sum{0};
  par::parallel_for(100'000, [&](i64 i) { sum.fetch_add(i, std::memory_order_relaxed); }, 64);
  EXPECT_EQ(sum.load(), i64{100'000} * 99'999 / 2);
}

TEST(Pool, WorkerIdentityInsideRegions) {
  constexpr int kWorkers = 4;
  const par::ScopedConfig cfg(kWorkers, par::Backend::Pool);
  EXPECT_FALSE(par::in_parallel());
  const auto self = std::this_thread::get_id();
  std::atomic<int> bad{0};
  // An uncontended root runs on the calling thread, as worker 0.
  par::run_root_task([&] {
    if (!par::in_parallel()) bad.fetch_add(1);
    if (std::this_thread::get_id() != self || par::worker_index() != 0) bad.fetch_add(1);
  });
  par::parallel_for(
      1'000,
      [&](i64) {
        const int w = par::worker_index();
        if (!par::in_parallel() || w < 0 || w >= kWorkers) bad.fetch_add(1);
      },
      1);
  EXPECT_FALSE(par::in_parallel());
  EXPECT_EQ(bad.load(), 0);
}

TEST(Pool, RepeatedResizeIsSafe) {
  for (const int p : {2, 4, 1, 3, 2}) {
    const par::ScopedConfig cfg(p, par::Backend::Pool);
    std::atomic<i64> n{0};
    par::parallel_for(10'000, [&](i64) { n.fetch_add(1, std::memory_order_relaxed); }, 32);
    EXPECT_EQ(n.load(), 10'000);
  }
}

TEST(Pool, FixedChunkLoopRunsEveryIndexOnce) {
  // bench/table_e9_slowdown.cpp emulates four classic schedules by fixing
  // the dynamic loop's chunk: ceil(n/p) (static), 1 (static,1 and
  // dynamic) and max(1, n/4p) (guided). Each must run every index once.
  for (const int p : {2, 4}) {
    const par::ScopedConfig cfg(p, par::Backend::Pool);
    for (const i64 n : {200, 2'001}) {
      for (const i64 chunk : {(n + p - 1) / p, i64{1}, std::max<i64>(1, n / (4 * p))}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        auto body = [&](i64 i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        };
        par::detail::pool_parallel_for(n, body, chunk);
        for (i64 i = 0; i < n; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "p=" << p << " n=" << n << " chunk=" << chunk << " i=" << i;
        }
      }
    }
  }
}

TEST(Pool, ConcurrentExternalRootsRunEveryIndexOnce) {
  // Several external threads drive the pool at once: whichever holds the
  // caller slot runs its root as worker 0, the others inject theirs and
  // wait. Settings are per thread, so each caller opens its own scope;
  // between bursts the new worker count resizes the pool.
  constexpr int kCallers = 4, kRounds = 6;
  constexpr i64 kN = 5'000, kLeaves = 512;
  constexpr std::size_t kFan = 16;
  for (const int p : {4, 2, 4}) {
    std::vector<std::atomic<int>> loop_hits(kCallers * kN), fan_hits(kCallers * kFan);
    std::vector<i64> leaves(kCallers, 0);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c, p] {
        const par::ScopedConfig cfg(p, par::Backend::Pool);
        const auto cu = static_cast<std::size_t>(c);
        for (int r = 0; r < kRounds; ++r) {
          par::parallel_for(
              kN,
              [&](i64 i) {
                loop_hits[cu * kN + static_cast<std::size_t>(i)].fetch_add(
                    1, std::memory_order_relaxed);
              },
              16);
          par::fan_items(kFan, [&](std::size_t i) {
            fan_hits[cu * kFan + i].fetch_add(1, std::memory_order_relaxed);
          });
          i64 n = 0;
          par::run_root_task([&] { n = count_leaves(0, kLeaves); });
          leaves[cu] += n;
        }
      });
    }
    for (auto& t : callers) t.join();
    for (std::size_t i = 0; i < loop_hits.size(); ++i) {
      ASSERT_EQ(loop_hits[i].load(), kRounds) << "p=" << p << " loop index " << i;
    }
    for (std::size_t i = 0; i < fan_hits.size(); ++i) {
      ASSERT_EQ(fan_hits[i].load(), kRounds) << "p=" << p << " fan item " << i;
    }
    for (const i64 n : leaves) EXPECT_EQ(n, kRounds * kLeaves) << "p=" << p;
  }
}

}  // namespace
}  // namespace thsr

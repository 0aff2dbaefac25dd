#pragma once
/// \file backend.hpp
/// Shared-memory fork-join executor: the repo's realization of the CREW PRAM.
///
/// A CREW PRAM step "for all i in parallel do f(i)" maps to parallel_for;
/// recursive divide-and-conquer maps to fork_join inside run_root_task.
/// Concurrent *reads* of immutable shared structures are allowed everywhere
/// (the CREW discipline); writes are always to thread-private or freshly
/// allocated state.
///
/// The backend and worker count are settings of the calling thread, chosen
/// at runtime (DESIGN.md section 1.1): `Backend::Serial` runs everything
/// inline, exactly like one worker, and `Backend::Pool` runs on the
/// library's work-stealing fork-join pool (src/parallel/pool.hpp), the one
/// parallel executor. Both execute the identical operation set in the
/// identical reduction structure; only placement differs, which is why
/// results are bit-identical and the work_depth counters agree exactly
/// across backends and thread counts (asserted by the determinism tests).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "geometry/exactq.hpp"
#include "parallel/pool.hpp"

namespace thsr::par {

/// Which executor realizes the PRAM primitives.
enum class Backend {
  Serial,  ///< inline execution on the calling thread
  Pool,    ///< native work-stealing fork-join pool
};

/// The calling thread's backend: its ScopedConfig override, else the
/// process default, resolved once from the THSR_BACKEND environment
/// variable ("serial" | "pool"; default Pool).
Backend backend() noexcept;

const char* backend_name(Backend b) noexcept;

/// Parse "serial" / "pool" (exact match) into a Backend.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// Every backend, {Serial, Pool}: the one authoritative list for tests and
/// benches.
std::vector<Backend> available_backends();

/// The calling thread's worker count: its ScopedConfig override, else
/// std::thread::hardware_concurrency() (read once).
int max_threads() noexcept;

/// True when parallel primitives called on this thread run inline: its
/// worker count is 1 or its backend is Serial. A solve started while this
/// holds runs entirely on its calling thread.
bool runs_inline() noexcept;

/// RAII scope that sets the calling thread's worker count (`threads > 0`)
/// and backend (when given) and restores the thread's previous values on
/// destruction, also when unwinding. Settings never cross threads: other
/// threads, pool workers included, keep their own. Nests.
class ScopedConfig {
 public:
  ScopedConfig(int threads, std::optional<Backend> b) noexcept;
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  int prev_threads_;
  std::optional<Backend> prev_backend_;
};

/// True when called from inside a parallel region.
bool in_parallel() noexcept;

/// Index of the calling worker in [0, p), p the worker count of the root
/// it serves.
int worker_index() noexcept;

namespace detail {

/// Fork `k` leaves running `mine` as a balanced task tree on the pool, so
/// idle workers pick up branches by stealing. Off a pool worker (e.g. the
/// inline fallback run_root takes after shutdown) there is nowhere to push
/// forks, so the tree degenerates to one serial leaf — correct, since the
/// leaves drain a shared counter and one drains it all.
template <typename M>
void mine_tree(int k, M& mine) {
  if (k <= 1 || !pool::on_worker()) {
    mine();
    return;
  }
  const int half = k / 2;
  auto left = [&] { mine_tree(half, mine); };
  pool::Closure<decltype(left)> task(std::move(left));
  pool::push(&task);
  mine_tree(k - half, mine);
  pool::join(&task);
}

/// Dynamic-chunk loop on the pool: max_threads() miners drain a shared
/// iteration counter in chunks — the pool's realization of the paper's
/// processor allocation (slow-down Lemma 2.1). The chunk is
/// clamp(n / 8p, 1, 16): at most 16, so one contended fetch_add covers 16
/// iterations of a large loop, and small enough that a loop of a few
/// coarse items (e.g. 16 envelope-merge strips) still spreads over every
/// worker. A non-zero `chunk` fixes the size exactly (the task allocator
/// uses this to emulate specific schedules).
template <typename F>
void pool_parallel_for(i64 n, F& f, i64 chunk = 0) {
  const int p = max_threads();
  if (chunk <= 0) chunk = std::clamp<i64>(n / (8 * p), 1, 16);
  std::atomic<i64> next{0};
  auto mine = [&] {
    for (;;) {
      const i64 i0 = next.fetch_add(chunk, std::memory_order_relaxed);
      if (i0 >= n) return;
      const i64 i1 = std::min(n, i0 + chunk);
      for (i64 i = i0; i < i1; ++i) f(i);
    }
  };
  const int miners = static_cast<int>(std::min<i64>(p, (n + chunk - 1) / chunk));
  auto root = [&] { mine_tree(miners, mine); };
  pool::Closure<decltype(root)> task(std::move(root));
  pool::run_root(&task, p);
}

}  // namespace detail

/// PRAM-style "in parallel for all i in [0, n)" with a dynamic schedule:
/// the practical counterpart of the paper's processor-allocation step
/// (slow-down Lemma 2.1); measured in bench table_e9_slowdown. Loops of at
/// most `grain` iterations run inline.
template <typename F>
void parallel_for(i64 n, F&& f, i64 grain = 256) {
  if (n > grain && !runs_inline() && !pool::on_worker()) {
    detail::pool_parallel_for(n, f);
    return;
  }
  for (i64 i = 0; i < n; ++i) f(i);
}

/// Run `f` as the root of a task tree (opens one parallel region).
template <typename F>
void run_root_task(F&& f) {
  if (!runs_inline() && !pool::on_worker()) {
    auto root = [&] { f(); };
    pool::Closure<decltype(root)> task(std::move(root));
    pool::run_root(&task, max_threads());
    return;
  }
  f();
}

namespace detail {

/// Recursive binary split of [lo, hi): distributes items by pool stealing
/// without tying the split to a schedule chunk size.
template <typename F>
void fan_items_tree(std::size_t lo, std::size_t hi, F& item);

}  // namespace detail

/// Fan `n` *independent whole items* out over the current backend as a
/// balanced binary task tree, one task per item — the dispatch shape of
/// batch drivers (HsrEngine::solve_batch, shard::ShardedEngine) whose
/// items are entire solves, each solved at threads = 1 so it stays on its
/// worker and counts exactly. Unlike parallel_for there is no chunking: n
/// is small and items are coarse. Opens its own root region; degrades to
/// a plain loop when n <= 1, this thread runs inline, or the caller is
/// already inside a parallel region.
template <typename F>
void fan_items(std::size_t n, F&& f) {
  if (n <= 1 || runs_inline() || in_parallel()) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  // Tasks must not throw (pool.hpp): keep the first exception and rethrow
  // it on the calling thread once every item has finished.
  std::exception_ptr error;
  std::mutex error_mu;
  auto item = [&](std::size_t i) {
    try {
      f(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lk(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  run_root_task([&] { detail::fan_items_tree(0, n, item); });
  if (error) std::rethrow_exception(error);
}

/// Execute a and b, possibly concurrently; returns after both complete.
/// Must be called (transitively) from run_root_task for parallelism to
/// occur, and forks only while the calling thread does not run inline.
template <typename A, typename B>
void fork_join(A&& a, B&& b, bool parallel_ok = true) {
  if (parallel_ok && !runs_inline() && pool::on_worker()) {
    auto left = [&] { a(); };
    pool::Closure<decltype(left)> task(std::move(left));
    pool::push(&task);
    b();
    pool::join(&task);
    return;
  }
  a();
  b();
}

namespace detail {

template <typename F>
void fan_items_tree(std::size_t lo, std::size_t hi, F& item) {
  if (hi - lo <= 1) {
    if (lo < hi) item(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  fork_join([&] { fan_items_tree(lo, mid, item); }, [&] { fan_items_tree(mid, hi, item); });
}

}  // namespace detail

}  // namespace thsr::par

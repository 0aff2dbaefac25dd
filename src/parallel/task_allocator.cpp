#include "parallel/task_allocator.hpp"

#include <atomic>
#include <chrono>

#include "parallel/backend.hpp"

namespace thsr::par {
namespace {

// Opaque spin so the optimizer cannot elide the work.
u64 spin(u32 iters) noexcept {
  volatile u64 acc = 0x9e3779b97f4a7c15ull;
  for (u32 i = 0; i < iters; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  return acc;
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs every task and returns how many ran — the completion count the
/// report exposes (relaxed increments: the counter is read only after the
/// parallel region joins).
u64 run_all(std::span<const u32> costs, Schedule sched) {
  const i64 n = static_cast<i64>(costs.size());
  std::atomic<u64> executed{0};
  // The pool's dynamic-chunk loop, with the chunk size fixed to the
  // nearest analogue of the requested schedule. (The pool has no static
  // placement; StaticBlock/StaticCyclic differ from the dynamic schedules
  // only through the chunk size, which is the part the lemma's t_{p,N}
  // term charges for anyway.)
  const i64 p = std::max(1, max_threads());
  i64 chunk = 1;
  switch (sched) {
    case Schedule::StaticBlock: chunk = (n + p - 1) / p; break;
    case Schedule::StaticCyclic: chunk = 1; break;
    case Schedule::Dynamic: chunk = 1; break;
    case Schedule::Guided: chunk = std::max<i64>(1, n / (4 * p)); break;
  }
  auto body = [&](i64 i) {
    spin(costs[static_cast<std::size_t>(i)]);
    executed.fetch_add(1, std::memory_order_relaxed);
  };
  if (backend() == Backend::Pool && p > 1 && !pool::on_worker()) {
    detail::pool_parallel_for(n, body, chunk);
    return executed.load(std::memory_order_relaxed);
  }
  for (i64 i = 0; i < n; ++i) body(i);
  return executed.load(std::memory_order_relaxed);
}

}  // namespace

const char* schedule_name(Schedule s) noexcept {
  switch (s) {
    case Schedule::StaticBlock: return "static";
    case Schedule::StaticCyclic: return "static,1";
    case Schedule::Dynamic: return "dynamic";
    case Schedule::Guided: return "guided";
  }
  return "?";
}

AllocReport run_synthetic_tasks(std::span<const u32> costs, int p, Schedule sched) {
  AllocReport r;
  r.tasks = costs.size();
  for (u32 c : costs) r.total_cost += c;

  const int prev = max_threads();
  set_threads(1);
  double t0 = now_s();
  (void)run_all(costs, Schedule::StaticBlock);
  r.serial_s = now_s() - t0;

  set_threads(p);
  t0 = now_s();
  r.executed = run_all(costs, sched);
  r.wall_s = now_s() - t0;
  set_threads(prev);

  r.ideal_s = r.serial_s / p;
  r.overhead_s = r.wall_s - r.ideal_s;
  return r;
}

}  // namespace thsr::par

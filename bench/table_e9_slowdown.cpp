/// E9 — Lemmas 2.1/2.2 (Brent slow-down with explicit processor
/// allocation): executing N unequal tasks on p workers costs
/// t_{p,N} + N·t/p. Measured: the scheduler-overhead term t_{p,N} of the
/// pool's dynamic-chunk analogue of four classic schedules, against task
/// count and skew — the justification for realizing the paper's processor
/// allocation with dynamic scheduling.

#include <random>
#include <span>

#include "bench_util.hpp"
#include "parallel/backend.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace thsr;

/// The pool's dynamic-chunk loop has no static placement, so each classic
/// schedule is emulated by its chunk size alone — the part the lemma's
/// t_{p,N} term charges for anyway.
struct Schedule {
  const char* name;
  i64 (*chunk)(i64 n, i64 p);
};
constexpr Schedule kSchedules[] = {
    {"static", [](i64 n, i64 p) { return (n + p - 1) / p; }},
    {"static,1", [](i64, i64) { return i64{1}; }},
    {"dynamic", [](i64, i64) { return i64{1}; }},
    {"guided", [](i64 n, i64 p) { return std::max<i64>(1, n / (4 * p)); }},
};

// Opaque spin so the optimizer cannot elide the work.
u64 spin(u32 iters) noexcept {
  volatile u64 acc = 0x9e3779b97f4a7c15ull;
  for (u32 i = 0; i < iters; ++i) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  return acc;
}

struct AllocReport {
  double wall_s{0};    ///< measured makespan on p workers
  double serial_s{0};  ///< measured serial execution time
  double ideal_s{0};   ///< serial_s / p
};

/// Spin `costs[i]` iterations per task: once serially, then under `sched`
/// on `p` pool workers.
AllocReport run_synthetic_tasks(std::span<const u32> costs, int p, const Schedule& sched) {
  const i64 n = static_cast<i64>(costs.size());
  auto body = [&](i64 i) { spin(costs[static_cast<std::size_t>(i)]); };
  AllocReport r;
  {
    const Stopwatch clock;
    for (i64 i = 0; i < n; ++i) body(i);
    r.serial_s = clock.seconds();
  }
  const Stopwatch clock;
  if (p > 1) {
    par::detail::pool_parallel_for(n, body, sched.chunk(n, p));
  } else {
    for (i64 i = 0; i < n; ++i) body(i);
  }
  r.wall_s = clock.seconds();
  r.ideal_s = r.serial_s / p;
  return r;
}

}  // namespace

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E9", "Lemmas 2.1/2.2",
               "allocation overhead t_{p,N} small and ~linear in N; dynamic handles skew");

  const int p = par::max_threads();
  Table t({"tasks", "skew", "schedule", "serial_ms", "wall_ms", "ideal_ms", "overhead_ms",
           "efficiency"});
  std::mt19937_64 g{7};
  for (const std::size_t n : {200ul, 2'000ul, 20'000ul}) {
    for (const bool skewed : {false, true}) {
      std::vector<u32> costs(n, 2'000);
      if (skewed) {
        std::uniform_int_distribution<u32> d(100, 40'000);
        for (auto& c : costs) c = d(g);
      }
      for (const Schedule& sched : kSchedules) {
        const AllocReport rep = run_synthetic_tasks(costs, p, sched);
        t.row({Table::num(static_cast<long long>(n)), skewed ? "yes" : "no", sched.name,
               ms(rep.serial_s), ms(rep.wall_s), ms(rep.ideal_s), ms(rep.wall_s - rep.ideal_s),
               Table::num(rep.ideal_s / rep.wall_s, 2)});
      }
    }
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e9_slowdown");
  return 0;
}

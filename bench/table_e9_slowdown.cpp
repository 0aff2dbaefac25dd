/// E9 — Lemmas 2.1/2.2 (Brent slow-down with explicit processor
/// allocation): executing N unequal tasks on p workers costs
/// t_{p,N} + N·t/p. Measured: the scheduler-overhead term t_{p,N} of the
/// pool's dynamic-chunk analogue of four classic schedules, against task
/// count and skew — the justification for realizing the paper's processor
/// allocation with dynamic scheduling.

#include <random>

#include "bench_util.hpp"
#include "parallel/backend.hpp"
#include "parallel/task_allocator.hpp"

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E9", "Lemmas 2.1/2.2",
               "allocation overhead t_{p,N} small and ~linear in N; dynamic handles skew");

  const int p = par::max_threads();
  const par::Backend prev = par::backend();
  par::set_backend(par::Backend::Pool);
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
      for (const auto sched : {par::Schedule::StaticBlock, par::Schedule::StaticCyclic,
                               par::Schedule::Dynamic, par::Schedule::Guided}) {
        const auto rep = par::run_synthetic_tasks(costs, p, sched);
        t.row({Table::num(static_cast<long long>(n)), skewed ? "yes" : "no",
               par::schedule_name(sched), ms(rep.serial_s), ms(rep.wall_s), ms(rep.ideal_s),
               ms(rep.overhead_s), Table::num(rep.ideal_s / rep.wall_s, 2)});
      }
    }
  }
  par::set_backend(prev);
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e9_slowdown");
  return 0;
}

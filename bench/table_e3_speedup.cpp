/// E3 — Theorem 3.1's /p term: speedup with worker count, per backend, and
/// the CREW discipline's schedule-independence: counted work must be
/// *identical* across p and across backends (the same operations run, only
/// their placement changes). The `serial` row is the fixed p=1 reference.

#include "bench_util.hpp"
#include "parallel/backend.hpp"

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E3", "Theorem 3.1 (/p)",
               "wall clock falls with p at fixed counted work; work identical across p and "
               "backend");

  const int hw = par::max_threads();
  const int pmax = std::max(4, hw);  // always tabulate the 4-thread row
  Table t({"grid", "n", "backend", "p", "phase1_ms", "phase2_ms", "total_ms", "speedup", "ops"});
  std::vector<u32> grids{48, 96};
  if (large()) grids.push_back(160);
  for (const u32 g : grids) {
    const Terrain terr = make(Family::Fbm, g);
    {
      const HsrResult r = solve_median3(terr, {.algorithm = Algorithm::Parallel, .threads = 1,
                                              .backend = par::Backend::Serial});
      t.row({Table::num(static_cast<long long>(g)),
             Table::num(static_cast<long long>(r.stats.n_edges)), "serial", Table::num(1LL),
             ms(r.stats.phase1_s), ms(r.stats.phase2_s), ms(r.stats.total_s),
             Table::num(1.0, 2), Table::num(static_cast<long long>(r.stats.work.total()))});
    }
    double base = 0;
    for (int p = 1; p <= pmax; p *= 2) {
      const HsrResult r = solve_median3(
          terr, {.algorithm = Algorithm::Parallel, .threads = p, .backend = par::Backend::Pool});
      if (p == 1) base = r.stats.total_s;
      t.row({Table::num(static_cast<long long>(g)),
             Table::num(static_cast<long long>(r.stats.n_edges)), "pool",
             Table::num(static_cast<long long>(p)), ms(r.stats.phase1_s), ms(r.stats.phase2_s),
             ms(r.stats.total_s), Table::num(base / r.stats.total_s, 2),
             Table::num(static_cast<long long>(r.stats.work.total()))});
    }
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e3_speedup");
  std::cout << "\nnote: hardware exposes " << hw
            << " workers; rows beyond that are oversubscribed. The /p claim is additionally\n"
               "validated by the machine-independent work counters, which are bit-identical\n"
               "across p and across backends (strip/grain decisions are pinned to constants;\n"
               "see kEnvMergeStrips) — the property the perf-regression CI baselines rely on.\n";
  return 0;
}

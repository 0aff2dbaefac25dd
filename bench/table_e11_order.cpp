/// E11 — section 3 step 1 / Fact 1 (Tamassia–Vitter separator tree):
/// this repo substitutes a depth order built from the terrain's own
/// triangles — two triangle-local arcs per face, a sweep over boundary
/// edges only, min-id Kahn (output-invariant, DESIGN.md section 4.2).
/// Measured: its cost per edge against the full all-edge sweep that gives
/// the same order, and its share of the end-to-end runtime.

#include "bench_util.hpp"
#include "separator/depth_order.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E11", "Fact 1 substitution",
               "triangle-local ordering ~ linear per edge, 10-20x below the full sweep, "
               "and a few percent of end-to-end time");

  Table t({"grid", "n", "order_ms", "sweep_ms", "order_ns/n", "constraints/n", "share_of_total"});
  std::vector<u32> grids{24, 48, 96, 128};
  if (large()) grids.push_back(176);
  const auto seconds = [](auto&& f) {
    const Stopwatch clock;
    f();
    return clock.seconds();
  };
  for (const u32 g : grids) {
    const Terrain terr = make(Family::Fbm, g);
    DepthOrder d;
    const double order_s = seconds([&] { d = compute_depth_order(terr); });
    const double sweep_s = seconds([&] { (void)sweep_depth_order(terr); });
    const HsrResult r = hidden_surface_removal(terr, {.algorithm = Algorithm::Parallel});
    const double n = static_cast<double>(terr.edge_count());
    t.row({Table::num(static_cast<long long>(g)),
           Table::num(static_cast<long long>(terr.edge_count())), ms(order_s), ms(sweep_s),
           Table::num(order_s * 1e9 / n, 1),
           Table::num(static_cast<double>(d.constraints) / n, 2),
           Table::num(order_s / r.stats.total_s, 3)});
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e11_order");
  return 0;
}

/// micro_engine_reuse — amortized solve cost and allocation churn of the
/// session engine (src/core/engine.hpp, DESIGN.md section 1.2).
///
/// For each input: N one-shot hidden_surface_removal() calls (every call
/// pays preprocessing + fresh arenas) vs prepare() once + N warm
/// engine.solve() calls (preprocessing amortized, arena blocks and scratch
/// recycled) vs one solve_batch() of the same N solves fanned out over the
/// fork-join backend. Reported per solve: wall clock, persistent nodes
/// built, and arena blocks heap-allocated (PArena::allocated() churn —
/// zero for warm solves once the retained blocks cover the backend's
/// schedule; exactly zero in serial runs, which the bench_ci engine case
/// and tests/test_engine.cpp gate deterministically).
///
/// Results are bit-identical across the three columns (the engine
/// determinism contract, tests/test_engine.cpp); only time and allocation
/// traffic differ.

#include <iostream>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace thsr;
  bench::print_header("ENGINE", "session reuse (DESIGN.md section 1.2)",
                      "prepare-once + warm solves amortize preprocessing and recycle arena "
                      "blocks; one-shot calls pay both every time");

  const int solves = bench::large() ? 16 : 8;
  Table table({"family", "grid", "mode", "ms/solve", "order ms", "treap nodes/solve",
               "blocks ever", "warm new blocks"});

  for (const u32 grid : {32u, 48u, 64u}) {
    const Terrain t = bench::make(Family::Fbm, grid);
    const HsrOptions opt{.algorithm = Algorithm::Parallel};

    // One-shot column: every call preprocesses and allocates from scratch.
    u64 oneshot_nodes = 0;
    double oneshot_s = 0, oneshot_order_s = 0;
    for (int i = 0; i < solves; ++i) {
      const HsrResult r = hidden_surface_removal(t, opt);
      oneshot_s += r.stats.total_s;
      oneshot_order_s += r.stats.order_s;
      oneshot_nodes += r.stats.treap_nodes;
    }

    // Warm-engine column: prepare once, recycle everything.
    HsrEngine engine;
    engine.prepare(t);
    (void)engine.solve(opt);  // cold solve sizes the arena
    const u64 blocks_cold = engine.arena_blocks();
    const u64 nodes_before = engine.arena_nodes();
    double warm_s = 0;
    for (int i = 0; i < solves; ++i) {
      HsrResult r = engine.solve(opt);
      warm_s += r.stats.total_s - r.stats.order_s;  // order time is amortized
      engine.recycle(std::move(r));
    }
    const u64 warm_new_blocks = engine.arena_blocks() - blocks_cold;
    const u64 warm_nodes = (engine.arena_nodes() - nodes_before) / solves;

    // Batch column: the same N solves as one fan-out.
    HsrEngine batch_engine;
    batch_engine.prepare(t);
    const std::vector<HsrOptions> opts(static_cast<std::size_t>(solves), opt);
    const Stopwatch batch_timer;
    const auto batch = batch_engine.solve_batch(opts);
    const double batch_s = batch_timer.seconds();

    const auto count = [](u64 v) { return Table::num(static_cast<unsigned long long>(v)); };
    const std::string g = std::to_string(grid);
    table.row({"fbm", g, "one-shot", bench::ms(oneshot_s / solves),
               bench::ms(oneshot_order_s / solves),
               count(oneshot_nodes / static_cast<u64>(solves)), "n/a", "n/a"});
    table.row({"fbm", g, "engine warm", bench::ms(warm_s / solves),
               bench::ms(engine.prepare_seconds()), count(warm_nodes),
               count(engine.arena_blocks()), count(warm_new_blocks)});
    table.row({"fbm", g, "engine batch", bench::ms(batch_s / solves),
               bench::ms(batch_engine.prepare_seconds()), count(batch[0].stats.treap_nodes),
               "n/a", "n/a"});
  }

  table.print_markdown(std::cout);
  table.maybe_write_csv("micro_engine_reuse");
  return 0;
}

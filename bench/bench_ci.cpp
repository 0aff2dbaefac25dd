/// bench_ci — counter-only perf-regression driver for CI.
///
/// Runs the counter-relevant workloads of benches E1 (Theorem 3.1 work
/// bound), E3 (schedule-independence), and E12 (phase-2 oracle ablation),
/// plus the engine-reuse (engine/*), sharded (shard/*), raster (raster/*),
/// viewpoint-service (service/* — cached parameterized solves hard-gated
/// bit-identical to direct solves of the pre-transformed terrain), and
/// out-of-core streaming (stream/* — streamed rasters hard-gated bitwise
/// against the monolithic solve, tall case under an enforced resident-
/// bytes budget) case families, once each — no timing repetitions — and records the
/// machine-independent work_depth counters as JSON. Because every grain/strip decision in the
/// library is pinned to constants (see kEnvMergeStrips), the counters are
/// bit-identical across machines, thread counts, and backends, so a
/// committed baseline (bench/baselines/BENCH_BASELINE.json) can gate
/// regressions exactly; the >0% tolerance only forgives deliberate small
/// algorithm tweaks between baseline refreshes.
///
/// Usage:
///   bench_ci [--out BENCH_CI.json] [--check BASELINE.json] [--tolerance 5]
///
/// Exit status with --check: 0 when no counter grew more than the
/// tolerance (percent) over the baseline and no baseline case disappeared;
/// 1 otherwise. New cases missing from the baseline are reported but do
/// not fail (refresh the baseline to adopt them).

#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "flat_json.hpp"
#include "parallel/backend.hpp"
#include "raster/oracle.hpp"
#include "raster/raster.hpp"
#include "service/engine_cache.hpp"
#include "shard/sharded_engine.hpp"
#include "stream/sinks.hpp"
#include "stream/stream.hpp"
#include "support/stream_grids.hpp"
#include "support/terrain_families.hpp"

namespace {

using namespace thsr;
using bench::CaseMap;
using bench::CounterMap;

CounterMap to_counter_map(const Counters& c) {
  CounterMap m;
  for (std::size_t i = 0; i < c.v.size(); ++i) m[std::string(kOpNames[i])] = c.v[i];
  m["total"] = c.total();
  return m;
}

void write_json(const CaseMap& cases, const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"schema\": 1,\n"
     << "  \"note\": \"machine-independent thsr work_depth counters; identical across "
        "backends, thread counts, and hosts\",\n"
     << "  \"cases\": {\n";
  std::size_t ci = 0;
  for (const auto& [name, counters] : cases) {
    os << "    \"" << name << "\": {";
    std::size_t ki = 0;
    for (const auto& [k, v] : counters) {
      os << "\"" << k << "\": " << v;
      if (++ki < counters.size()) os << ", ";
    }
    os << "}";
    if (++ci < cases.size()) os << ",";
    os << "\n";
  }
  os << "  }\n}\n";
}

/// Compare current counters against the baseline. Returns the number of
/// failures (regressions beyond `tolerance_pct`, or lost cases/counters).
int check(const CaseMap& baseline, const CaseMap& current, double tolerance_pct) {
  int failures = 0;
  for (const auto& [name, base_counters] : baseline) {
    const auto it = current.find(name);
    if (it == current.end()) {
      std::cout << "FAIL  " << name << ": case present in baseline but not produced\n";
      ++failures;
      continue;
    }
    for (const auto& [k, base_v] : base_counters) {
      const auto kit = it->second.find(k);
      if (kit == it->second.end()) {
        std::cout << "FAIL  " << name << "/" << k << ": counter missing\n";
        ++failures;
        continue;
      }
      const u64 cur_v = kit->second;
      if (cur_v == base_v) continue;
      const double delta_pct =
          base_v == 0 ? 100.0
                      : 100.0 * (static_cast<double>(cur_v) - static_cast<double>(base_v)) /
                            static_cast<double>(base_v);
      std::ostringstream line;
      line << name << "/" << k << ": " << base_v << " -> " << cur_v << " ("
           << Table::num(delta_pct, 2) << "%)";
      if (delta_pct > tolerance_pct) {
        std::cout << "FAIL  " << line.str() << " exceeds +" << tolerance_pct << "%\n";
        ++failures;
      } else {
        std::cout << "note  " << line.str() << "\n";
      }
    }
  }
  for (const auto& [name, _] : current) {
    if (!baseline.count(name)) {
      std::cout << "note  " << name << ": new case not in baseline (refresh to adopt)\n";
    }
  }
  return failures;
}

void run_case(CaseMap& cases, const std::string& name, Family fam, u32 grid,
              Phase2Oracle oracle = Phase2Oracle::Persistent) {
  const Terrain terr = bench::make(fam, grid);
  // threads=2 exercises the parallel code paths; the counters are the same
  // at any p and on any backend (asserted by test_determinism).
  const HsrResult r = hidden_surface_removal(
      terr, {.algorithm = Algorithm::Parallel, .threads = 2, .phase2_oracle = oracle});
  cases[name] = to_counter_map(r.stats.work);
  cases[name]["k_pieces"] = r.stats.k_pieces;
  cases[name]["treap_nodes"] = r.stats.treap_nodes;
  cases[name]["phase1_pieces"] = r.stats.phase1_pieces;
}

/// Engine-reuse workloads: gate the warm-solve path (counters must stay
/// bit-identical to one-shot runs, and a warm solve must allocate zero new
/// arena blocks) and the batch path. threads=1 because *block* counts —
/// unlike the work counters — depend on how allocations land on threads.
void run_engine_cases(CaseMap& cases) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  // Records one warm solve; returns the engine's arena blocks.
  const auto warm_case = [&](const std::string& name, Algorithm algorithm) {
    HsrEngine eng;
    eng.prepare(terr);
    const HsrOptions opt{.algorithm = algorithm, .threads = 1};
    (void)eng.solve(opt);  // cold solve sizes the arena
    const u64 blocks_cold = eng.arena_blocks();
    const HsrResult warm = eng.solve(opt);
    cases[name] = to_counter_map(warm.stats.work);
    cases[name]["k_pieces"] = warm.stats.k_pieces;
    cases[name]["treap_nodes"] = warm.stats.treap_nodes;
    cases[name]["phase1_pieces"] = warm.stats.phase1_pieces;
    cases[name]["arena_new_blocks"] = eng.arena_blocks() - blocks_cold;
    return eng.arena_blocks();
  };
  (void)warm_case("engine/fbm/g48/warm", Algorithm::Parallel);
  // Sequential's single-version splices recycle every node they supersede,
  // so the whole solve lives in one arena block: a free list that stops
  // recycling grows arena_blocks past the +5% gate.
  const u64 seq_blocks = warm_case("engine/fbm/g48/warm-seq", Algorithm::Sequential);
  cases["engine/fbm/g48/warm-seq"]["arena_blocks"] = seq_blocks;

  // Batch fan-out: one case summing the per-item counters (deterministic).
  HsrEngine batch_eng;
  batch_eng.prepare(terr);
  const std::vector<HsrOptions> opts{{.algorithm = Algorithm::Parallel},
                                     {.algorithm = Algorithm::Sequential},
                                     {.algorithm = Algorithm::Parallel,
                                      .phase2_oracle = Phase2Oracle::MaterializedScan}};
  Counters total;
  u64 k = 0;
  for (const HsrResult& r : batch_eng.solve_batch(opts)) {
    total += r.stats.work;
    k += r.stats.k_pieces;
  }
  cases["engine/fbm/g48/batch3"] = to_counter_map(total);
  cases["engine/fbm/g48/batch3"]["k_pieces"] = k;
}

/// Sharded-solve workloads (DESIGN.md section 1.7). Besides the baseline
/// comparison, these carry a built-in gate: the sum of per-slab counted
/// work (which is what the stitched result reports) must stay within the
/// plan's edge-duplication bound of the monolithic counted work — the
/// decomposition may only pay for replicated edges, never change the
/// asymptotics (slack: shard::kShardWorkSlack, shared with
/// tests/test_shard.cpp). Returns the number of gate failures.
int run_shard_cases(CaseMap& cases) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  const HsrResult mono = hidden_surface_removal(
      terr, {.algorithm = Algorithm::Parallel, .threads = 2});
  int failures = 0;
  for (const u32 S : {2u, 8u}) {
    shard::ShardedEngine eng;
    eng.prepare(terr, S);
    const HsrResult r = eng.solve({.algorithm = Algorithm::Parallel, .threads = 2});
    const std::string name = "shard/fbm/g48/s" + std::to_string(S);
    cases[name] = to_counter_map(r.stats.work);
    cases[name]["k_pieces"] = r.stats.k_pieces;
    cases[name]["slab_edges_total"] = eng.plan().slab_edges_total;
    const double bound = eng.plan().duplication_factor() * shard::kShardWorkSlack;
    const auto sharded_total = static_cast<double>(r.stats.work.total());
    const auto mono_total = static_cast<double>(mono.stats.work.total());
    if (sharded_total > bound * mono_total) {
      std::cout << "FAIL  " << name << ": sharded counted work " << r.stats.work.total()
                << " exceeds duplication bound " << Table::num(bound, 3) << " x monolithic "
                << mono.stats.work.total() << "\n";
      ++failures;
    }
  }
  return failures;
}

/// Raster workloads (DESIGN.md section 1.8). The scan-converter's
/// crossing and hit-sample counts are exact functions of the solved map
/// and the sampling lattice — machine/backend/p-independent like the
/// work counters — so they gate against the baseline. A built-in hard
/// gate mirrors test_raster: the sharded (per-slab, no-stitch)
/// rasterization must reproduce the monolithic image bit-for-bit.
/// Returns the number of gate failures.
int run_raster_cases(CaseMap& cases) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  HsrEngine engine;
  engine.prepare(terr);
  const HsrResult solved = engine.solve({.algorithm = Algorithm::Parallel, .threads = 2});
  shard::ShardedEngine sharded;
  sharded.prepare(terr, 4);
  const auto per_slab = sharded.solve_slabs({.algorithm = Algorithm::Parallel, .threads = 2});
  std::vector<const VisibilityMap*> slab_maps(per_slab.size(), nullptr);
  for (std::size_t i = 0; i < per_slab.size(); ++i) {
    if (per_slab[i]) slab_maps[i] = &per_slab[i]->map;
  }
  int failures = 0;
  for (const u32 s : {1u, 2u}) {
    raster::RasterOptions opt;
    opt.width = 160;
    opt.height = 120;
    opt.supersample = s;
    opt.threads = 2;
    const raster::ImageRaster img = raster::rasterize(terr, solved.map, opt);
    const std::string name = "raster/fbm/g48/r160s" + std::to_string(s);
    cases[name]["crossings"] = img.crossings;
    cases[name]["hit_samples"] = img.hit_samples;
    cases[name]["samples"] = img.samples;
    cases[name]["k_pieces"] = solved.stats.k_pieces;

    const raster::ImageRaster banded = raster::rasterize_sharded(sharded.plan(), slab_maps, opt);
    if (banded.ids != img.ids || banded.depth != img.depth || banded.coverage != img.coverage) {
      std::cout << "FAIL  " << name << ": sharded raster differs from monolithic\n";
      ++failures;
    }
  }
  return failures;
}

/// Serving-layer workloads (DESIGN.md section 1.10): viewpoint-
/// parameterized solves through the engine cache. Counter cases gate the
/// post-transform solve work against the baseline; a built-in hard gate
/// asserts the cache path — cold miss, warm hit, and the order-transfer
/// rung — is bitwise identical (visibility map AND work counters) to a
/// direct solve of the pre-transformed terrain. Both sides solve with the
/// default algorithm, as QueryServer replies do; the direct one asks for
/// threads=2, so a default that forks is also held to thread-count
/// identity. Returns the number of gate failures.
int run_service_cases(CaseMap& cases) {
  using service::Viewpoint;
  const auto terr = std::make_shared<const Terrain>(bench::make(Family::Fbm, 48));
  // One viewpoint per reuse-ladder rung plus rotated/general azimuths
  // (Pythagorean pairs keep magnitudes small; all admissible for g48).
  const std::vector<std::pair<std::string, Viewpoint>> vps = {
      {"identity", Viewpoint{}},
      {"el1-3", Viewpoint{.elev_num = 1, .elev_den = 3}},
      {"az0-1", Viewpoint{.dir_x = 0, .dir_y = 1}},
      {"az3-4", Viewpoint{.dir_x = 3, .dir_y = 4}},
      {"az4-3el1-4", Viewpoint{.dir_x = 4, .dir_y = -3, .elev_num = 1, .elev_den = 4}},
  };
  const auto expect_same = [](const HsrResult& got, const HsrResult& want,
                              const std::string& name, const char* label) -> int {
    const auto diff = want.map.first_difference(got.map);
    if (diff.has_value()) {
      std::cout << "FAIL  " << name << ": " << label << " map differs from direct solve at edge "
                << *diff << "\n";
      return 1;
    }
    if (!(got.stats.work == want.stats.work)) {
      std::cout << "FAIL  " << name << ": " << label << " work counters differ from direct solve\n";
      return 1;
    }
    return 0;
  };
  service::EngineCache cache;
  cache.add_terrain(1, terr);
  int failures = 0;
  for (const auto& [label, vp] : vps) {
    const std::string name = "service/fbm/g48/" + label;
    if (!service::admissible(vp, terr->max_abs_coord())) {
      std::cout << "FAIL  " << name << ": viewpoint inadmissible for this terrain\n";
      ++failures;
      continue;
    }
    const Terrain direct_terrain = service::transform_terrain(*terr, vp);
    const HsrResult direct = hidden_surface_removal(direct_terrain, {.threads = 2});
    const HsrOptions opt{};
    const HsrResult cold = cache.acquire(1, vp)->engine().solve(opt);
    bool hit = false;
    const HsrResult warm = cache.acquire(1, vp, &hit)->engine().solve(opt);
    failures += expect_same(cold, direct, name, "cold cache solve");
    failures += expect_same(warm, direct, name, "warm cache solve");
    if (!hit) {
      std::cout << "FAIL  " << name << ": second acquire was not a cache hit\n";
      ++failures;
    }
    cases[name] = to_counter_map(direct.stats.work);
    cases[name]["k_pieces"] = direct.stats.k_pieces;
    cases[name]["treap_nodes"] = direct.stats.treap_nodes;
    cases[name]["phase1_pieces"] = direct.stats.phase1_pieces;
  }
  // The cache's own counters are deterministic for this schedule: one miss
  // + one hit per viewpoint, and the shear transfers the identity entry's
  // depth order. Baseline-gated like any other counters.
  const service::EngineCache::Stats cs = cache.stats();
  cases["service/fbm/g48/cache"] = CounterMap{{"hits", cs.hits},
                                              {"misses", cs.misses},
                                              {"order_transfers", cs.order_transfers},
                                              {"resident_entries", cs.resident_entries}};
  return failures;
}

/// Out-of-core streaming workloads (DESIGN.md section 1.11), solved with the
/// default algorithm. Counter cases gate the streamed solve + scan work
/// against the baseline (the synthetic grids are integer-hash noise, so the
/// counters are host-independent like every other family). Two built-in
/// hard gates: the streamed raster must be bit-identical to the monolithic
/// solve at every resident-slab budget (with budget-invariant counters),
/// and the tall case must complete under an enforced resident-bytes budget
/// (tests/test_stream.cpp holds the same gates at more budgets and a
/// 3,489-row file). Returns the number of gate failures.
int run_stream_cases(CaseMap& cases) {
  int failures = 0;
  const auto base_opt = [](u32 slab_rows, u32 B) {
    stream::StreamOptions opt;
    opt.slab_rows = slab_rows;
    opt.resident_slabs = B;
    opt.width = 160;
    opt.height = 120;
    opt.supersample = 2;
    opt.solve.threads = 2;
    return opt;
  };
  const auto record = [&cases](const std::string& name, const stream::StreamStats& st) {
    cases[name] = to_counter_map(st.work);
    cases[name]["k_pieces"] = st.k_pieces;
    cases[name]["triangles"] = st.triangles;
    cases[name]["crossings"] = st.crossings;
    cases[name]["hit_samples"] = st.hit_samples;
    cases[name]["slabs"] = st.slabs;
  };

  // Identity: small enough for the monolithic path, compared bitwise.
  {
    const AscGrid g = support::stream_grid(32, 48, /*seed=*/7);
    const Terrain terr = stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata);
    i64 z_lo = 0, z_hi = 0;
    bool any = false;
    for (const double v : g.values) {
      const i64 q = stream::quantize_height(v, {});
      z_lo = any ? std::min(z_lo, q) : q;
      z_hi = any ? std::max(z_hi, q) : q;
      any = true;
    }
    const HsrResult mono = hidden_surface_removal(terr, {.threads = 2});
    raster::RasterOptions ropt;
    ropt.width = 160;
    ropt.height = 120;
    ropt.supersample = 2;
    ropt.window = stream::stream_window(g.ncols, g.nrows, z_lo, z_hi);
    ropt.threads = 2;
    const raster::ImageRaster img = raster::rasterize(terr, mono.map, ropt);
    std::optional<stream::StreamStats> first;
    for (const u32 B : {1u, 6u}) {
      stream::StreamOptions opt = base_opt(/*slab_rows=*/8, B);
      stream::MemoryBandSink sink(opt.width, opt.height, opt.supersample);
      stream::GridRowSource src(g);
      const stream::StreamStats st = stream::stream_solve(src, opt, sink);
      const std::string name = "stream/synth/c32r48/s8";
      if (sink.image().ids != img.ids || sink.image().depth != img.depth ||
          sink.image().coverage != img.coverage) {
        std::cout << "FAIL  " << name << "/b" << B
                  << ": streamed raster differs from monolithic\n";
        ++failures;
      }
      if (!first) {
        first = st;
        record(name, st);
      } else if (!(st.work == first->work) || st.k_pieces != first->k_pieces ||
                 st.crossings != first->crossings || st.hit_samples != first->hit_samples) {
        std::cout << "FAIL  " << name << ": counters depend on the resident-slab budget\n";
        ++failures;
      }
    }
  }

  // Tall: ~15 slab windows under an enforced resident-bytes budget (the
  // ~100x case is test_stream's Stream.ResidencyDoesNotGrowWithRowCount;
  // this one keeps bench_ci cheap).
  {
    const AscGrid g = support::stream_grid(32, 481, /*seed=*/11);
    stream::StreamOptions opt = base_opt(/*slab_rows=*/32, /*B=*/2);
    opt.resident_bytes_budget = 16ull << 20;
    stream::NullBandSink sink;
    stream::GridRowSource src(g);
    try {
      record("stream/synth/c32r481/s32", stream::stream_solve(src, opt, sink));
    } catch (const std::exception& e) {
      std::cout << "FAIL  stream/synth/c32r481/s32: " << e.what() << "\n";
      ++failures;
    }
  }
  return failures;
}

/// Resolution-bounded workloads (DESIGN.md section 1.12). Counter cases
/// gate the bounded solve's work against the baseline; two built-in hard
/// gates defend the mode's contract on every CI run: at the budget's
/// matching resolution the bounded raster must be bit-identical to the
/// exact solve's raster AND to the brute-force ray-cast oracle (for the
/// parallel and sequential algorithms alike), and the dense-staircase
/// family — whose visible map is dominated by sub-pixel pieces — must
/// show at least a 20% drop in both k_pieces and treap_nodes versus the
/// exact solve. Returns the number of gate failures.
int run_bounded_cases(CaseMap& cases) {
  const Terrain terr = support::dense_staircase(48, /*seed=*/5);
  raster::RasterOptions ropt;
  ropt.width = 64;
  ropt.height = 48;
  ropt.threads = 2;
  const HsrOptions exact_opt{.algorithm = Algorithm::Parallel, .threads = 2};
  HsrOptions bounded_opt = exact_opt;
  bounded_opt.pixel_budget = raster::pixel_budget(terr, ropt);
  const HsrResult exact = hidden_surface_removal(terr, exact_opt);
  const HsrResult bounded = hidden_surface_removal(terr, bounded_opt);
  const raster::ImageRaster img_e = raster::rasterize(terr, exact.map, ropt);
  const raster::ImageRaster img_b = raster::rasterize(terr, bounded.map, ropt);

  int failures = 0;
  const std::string name = "bounded/stair/g48/r64";
  if (img_b.ids != img_e.ids || img_b.depth != img_e.depth || img_b.coverage != img_e.coverage ||
      img_b.crossings != img_e.crossings || img_b.hit_samples != img_e.hit_samples) {
    std::cout << "FAIL  " << name << ": bounded raster differs from exact raster\n";
    ++failures;
  }
  const raster::ImageRaster oracle = raster::raycast_reference(terr, ropt);
  if (img_b.ids != oracle.ids || img_b.depth != oracle.depth ||
      img_b.coverage != oracle.coverage) {
    std::cout << "FAIL  " << name << ": bounded raster differs from ray-cast oracle\n";
    ++failures;
  }
  HsrOptions seq_opt = bounded_opt;
  seq_opt.algorithm = Algorithm::Sequential;
  const HsrResult seq = hidden_surface_removal(terr, seq_opt);
  const raster::ImageRaster img_s = raster::rasterize(terr, seq.map, ropt);
  if (img_s.ids != img_e.ids || img_s.depth != img_e.depth || img_s.coverage != img_e.coverage) {
    std::cout << "FAIL  " << name << ": sequential bounded raster differs from exact raster\n";
    ++failures;
  }

  const auto require_drop = [&](const char* what, u64 exact_v, u64 bounded_v) {
    const double kept = exact_v == 0 ? 1.0
                                     : static_cast<double>(bounded_v) /
                                           static_cast<double>(exact_v);
    if (kept > 0.80) {
      std::cout << "FAIL  " << name << ": " << what << " kept " << Table::num(100.0 * kept, 1)
                << "% of exact (" << exact_v << " -> " << bounded_v
                << "); the bounded mode must prune >= 20% here\n";
      ++failures;
    }
  };
  require_drop("k_pieces", exact.stats.k_pieces, bounded.stats.k_pieces);
  require_drop("treap_nodes", exact.stats.treap_nodes, bounded.stats.treap_nodes);

  cases[name] = to_counter_map(bounded.stats.work);
  cases[name]["k_pieces"] = bounded.stats.k_pieces;
  cases[name]["treap_nodes"] = bounded.stats.treap_nodes;
  cases[name]["phase1_pieces"] = bounded.stats.phase1_pieces;
  cases[name]["crossings"] = img_b.crossings;
  cases[name]["hit_samples"] = img_b.hit_samples;
  // The exact-side counters ride along so the artifact shows the pruning
  // ratio directly (and the baseline pins both sides of it).
  cases["bounded/stair/g48/exact"] = CounterMap{{"k_pieces", exact.stats.k_pieces},
                                                {"treap_nodes", exact.stats.treap_nodes},
                                                {"phase1_pieces", exact.stats.phase1_pieces}};
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_CI.json";
  std::string check_path;
  double tolerance = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--out") {
      if (const char* v = next()) out_path = v;
    } else if (arg == "--check") {
      if (const char* v = next()) check_path = v;
    } else if (arg == "--tolerance") {
      if (const char* v = next()) tolerance = std::atof(v);
    } else {
      std::cerr << "usage: bench_ci [--out FILE] [--check BASELINE] [--tolerance PCT]\n";
      return 2;
    }
  }

  CaseMap cases;
  // E1 (Theorem 3.1 work bound): the table's grid sweep.
  for (const u32 g : {24u, 32u, 48u, 64u, 96u}) {
    run_case(cases, "e1/fbm/g" + std::to_string(g), Family::Fbm, g);
  }
  // E3 (schedule-independence): the speedup table's inputs.
  for (const u32 g : {48u, 96u}) {
    run_case(cases, "e3/fbm/g" + std::to_string(g), Family::Fbm, g);
  }
  // E12 (phase-2 oracle ablation): both oracles, both families.
  for (const u32 g : {24u, 48u, 96u}) {
    run_case(cases, "e12/fbm/g" + std::to_string(g) + "/persistent", Family::Fbm, g,
             Phase2Oracle::Persistent);
    run_case(cases, "e12/fbm/g" + std::to_string(g) + "/materialized", Family::Fbm, g,
             Phase2Oracle::MaterializedScan);
    run_case(cases, "e12/terrace/g" + std::to_string(g) + "/persistent", Family::TerraceBack, g,
             Phase2Oracle::Persistent);
    run_case(cases, "e12/terrace/g" + std::to_string(g) + "/materialized", Family::TerraceBack,
             g, Phase2Oracle::MaterializedScan);
  }

  // Engine reuse: the warm-solve and batch paths.
  run_engine_cases(cases);

  // Sharded solves: baseline cases + the duplication-bound work gate.
  const int shard_failures = run_shard_cases(cases);

  // Raster products: baseline cases + the sharded-equality image gate.
  const int raster_failures = run_raster_cases(cases);

  // Viewpoint service: baseline cases + the cache-vs-direct identity gate.
  const int service_failures = run_service_cases(cases);

  // Out-of-core streaming: baseline cases + the streamed-vs-monolithic
  // identity and enforced resident-bytes gates.
  const int stream_failures = run_stream_cases(cases);

  // Resolution-bounded solves: baseline cases + the bitwise raster-identity
  // and >= 20% pruning gates.
  const int bounded_failures = run_bounded_cases(cases);

  write_json(cases, out_path);
  std::cout << "wrote " << cases.size() << " cases to " << out_path << "\n";
  const int gate_failures =
      shard_failures + raster_failures + service_failures + stream_failures + bounded_failures;
  if (shard_failures) {
    // Reported now, but keep going: a single run should surface both this
    // and any baseline regressions below.
    std::cout << shard_failures << " sharding duplication-bound violation(s)\n";
  }
  if (raster_failures) {
    std::cout << raster_failures << " sharded-raster equality violation(s)\n";
  }
  if (service_failures) {
    std::cout << service_failures << " service cache-vs-direct identity violation(s)\n";
  }
  if (stream_failures) {
    std::cout << stream_failures << " streaming identity/residency violation(s)\n";
  }
  if (bounded_failures) {
    std::cout << bounded_failures << " bounded-solve identity/pruning violation(s)\n";
  }

  if (check_path.empty()) return gate_failures ? 1 : 0;
  std::ifstream is(check_path);
  if (!is) {
    std::cerr << "bench_ci: cannot read baseline " << check_path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  bench::FlatU64Parser parser(buf.str());
  const auto baseline = parser.parse();
  if (!baseline) {
    std::cerr << "bench_ci: cannot parse baseline " << check_path << "\n";
    return 1;
  }
  const int failures = check(*baseline, cases, tolerance);
  if (failures) {
    std::cout << failures << " counter regression(s) beyond +" << tolerance << "%\n";
  } else {
    std::cout << "counters within +" << tolerance << "% of baseline (" << baseline->size()
              << " cases)\n";
  }
  return (failures || gate_failures) ? 1 : 0;
}

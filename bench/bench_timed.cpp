/// bench_timed — wall-clock lane of the bench suite (DESIGN.md section 1.9).
///
/// bench_ci gates *what* the library computes (machine-independent work
/// counters, bit-exact against a committed baseline); this driver measures
/// *how fast*, which is inherently host-dependent and therefore never
/// gated in CI — it produces an artifact, BENCH_TIMED.json, that humans
/// (or `--diff`) compare across two runs on the *same* host. Protocol per
/// case (bench/timing.hpp): warm up untimed, then report the median of
/// `--reps` timed repetitions with IQR and MAD dispersion. Threads are not
/// pinned: the pool's workers inherit the main thread's CPU mask, so
/// pinning it would run every p=4 case on one core. Cases cover cold
/// preparation and the three solve surfaces whose speed the engine-reuse
/// and flattened-treap work targets: warm HsrEngine solves, sharded
/// solves, and rasterization — each on the serial backend at p=1 and on
/// the first scaling backend at p=4, so one artifact shows both the
/// single-core cost and the parallel win.
///
/// Usage:
///   bench_timed [--out BENCH_TIMED.json] [--reps 9] [--warmup 2]
///               [--filter SUBSTR] [--quick]
///   bench_timed --diff OLD.json NEW.json
///
/// --quick drops to 3 reps / 1 warmup (the CI smoke configuration).
/// --diff prints per-case median deltas of two artifacts and marks a delta
/// significant only when it exceeds both runs' IQR — it never fails the
/// build (exit 0 unless an artifact is unreadable).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "flat_json.hpp"
#include "geometry/filter.hpp"
#include "parallel/backend.hpp"
#include "parallel/work_depth.hpp"
#include "raster/raster.hpp"
#include "service/engine_cache.hpp"
#include "shard/sharded_engine.hpp"
#include "stream/sinks.hpp"
#include "stream/stream.hpp"
#include "support/stream_grids.hpp"
#include "support/terrain_families.hpp"
#include "timing.hpp"

namespace {

using namespace thsr;
using bench::CaseMap;
using bench::CounterMap;
using bench::TimedStats;

struct Config {
  std::string out = "BENCH_TIMED.json";
  int reps = 9;
  int warmup = 2;
  std::string filter;
};

/// The (backend, p) pairs every case family runs under. Serial/p1 is the
/// single-core anchor; Pool at a fixed p=4 keeps case names stable across
/// hosts — p beyond the core count just oversubscribes, which the host
/// fingerprint in `meta` lets a reader discount.
struct Lane {
  par::Backend backend;
  int threads;
};

std::vector<Lane> lanes() { return {{par::Backend::Serial, 1}, {par::Backend::Pool, 4}}; }

std::string lane_suffix(const Lane& ln) {
  return std::string("/") + par::backend_name(ln.backend) + "/p" + std::to_string(ln.threads);
}

bool selected(const Config& cfg, const std::string& name) {
  return cfg.filter.empty() || name.find(cfg.filter) != std::string::npos;
}

void record(CaseMap& cases, const std::string& name, const TimedStats& s, const Lane& ln) {
  CounterMap& m = cases[name];
  m["median_ns"] = s.median_ns;
  m["iqr_ns"] = s.iqr_ns;
  m["mad_ns"] = s.mad_ns;
  m["min_ns"] = s.min_ns;
  m["reps"] = s.reps;
  m["p"] = static_cast<u64>(ln.threads);
  std::cout << "  " << name << ": median " << s.median_ns / 1000 << " us (iqr "
            << s.iqr_ns / 1000 << " us, " << s.reps << " reps)\n";
}

/// Cold preparation: a fresh HsrEngine::prepare (segment table, depth
/// order, PCT) per repetition — what a terrain pays once before its first
/// solve: one-shot viewsheds, stream slabs, and cache misses that change
/// the ground projection. prepare() always runs inline on the calling
/// thread; both lanes carry the case so each lane shows the whole path.
void run_prepare_cases(CaseMap& cases, const Config& cfg) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  for (const Lane& ln : lanes()) {
    const std::string name = "prepare/fbm/g48" + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    const par::ScopedConfig scope(ln.threads, ln.backend);
    const TimedStats s = bench::measure(
        [&] {
          HsrEngine eng;
          eng.prepare(terr);
        },
        cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
  }
}

/// Warm HsrEngine solves: prepare once, let the harness warmup be the cold
/// solve that sizes the arena, then time steady-state solves — the path
/// the arena-indexed treap flattening targets. Also stamps the retained
/// arena footprint so artifacts track resident cost next to wall clock.
void run_engine_cases(CaseMap& cases, const Config& cfg) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  HsrEngine eng;
  eng.prepare(terr);
  struct Alg {
    Algorithm algorithm;
    const char* name;
  };
  for (const Alg alg :
       {Alg{Algorithm::Parallel, "parallel"}, Alg{Algorithm::Sequential, "sequential"}}) {
    for (const Lane& ln : lanes()) {
      if (alg.algorithm == Algorithm::Sequential && ln.backend != par::Backend::Serial) {
        continue;  // sequential never enters a parallel region; one lane suffices
      }
      const std::string name =
          std::string("engine/fbm/g48/warm/") + alg.name + lane_suffix(ln);
      if (!selected(cfg, name)) continue;
      const HsrOptions opt{
          .algorithm = alg.algorithm, .threads = ln.threads, .backend = ln.backend};
      const TimedStats s = bench::measure(
          [&] {
            HsrResult r = eng.solve(opt);
            eng.recycle(std::move(r));
          },
          cfg.warmup, cfg.reps);
      record(cases, name, s, ln);
      cases[name]["arena_footprint_bytes"] = eng.arena_footprint_bytes();
    }
  }

  // Batch fan-out of three heterogeneous solves (the solve_batch path).
  for (const Lane& ln : lanes()) {
    const std::string name = std::string("engine/fbm/g48/batch3") + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    const std::vector<HsrOptions> opts{{.algorithm = Algorithm::Parallel},
                                       {.algorithm = Algorithm::Sequential},
                                       {.algorithm = Algorithm::Parallel,
                                        .phase2_oracle = Phase2Oracle::MaterializedScan}};
    const par::ScopedConfig scope(ln.threads, ln.backend);
    const TimedStats s = bench::measure(
        [&] {
          auto results = eng.solve_batch(opts);
          for (HsrResult& r : results) eng.recycle(std::move(r));
        },
        cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
  }
}

/// Sharded solves: slab fan-out + stitch, the decomposition wall clock.
void run_shard_cases(CaseMap& cases, const Config& cfg) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  shard::ShardedEngine eng;
  eng.prepare(terr, 8);
  for (const Lane& ln : lanes()) {
    const std::string name = std::string("shard/fbm/g48/s8") + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    const HsrOptions opt{
        .algorithm = Algorithm::Parallel, .threads = ln.threads, .backend = ln.backend};
    const TimedStats s = bench::measure([&] { (void)eng.solve(opt); }, cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
  }
}

/// Rasterization of one solved map: the image-space product's wall clock.
void run_raster_cases(CaseMap& cases, const Config& cfg) {
  const Terrain terr = bench::make(Family::Fbm, 48);
  HsrEngine eng;
  eng.prepare(terr);
  const HsrResult solved = eng.solve({.algorithm = Algorithm::Parallel, .threads = 1});
  for (const Lane& ln : lanes()) {
    const std::string name = std::string("raster/fbm/g48/r160s2") + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    raster::RasterOptions opt;
    opt.width = 160;
    opt.height = 120;
    opt.supersample = 2;
    opt.threads = ln.threads;
    opt.backend = ln.backend;
    const TimedStats s = bench::measure(
        [&] { (void)raster::rasterize(terr, solved.map, opt); }, cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
  }
}

/// Viewpoint-service solves: warm EngineCache acquire + a one-thread solve
/// (what QueryServer workers run) under rotated / elevated viewpoints — the
/// query service's steady-state serving wall clock (the acquire is a cache
/// hit after the harness warmup; the solve reuses the resident engine's
/// arena).
void run_service_cases(CaseMap& cases, const Config& cfg) {
  const auto terr = std::make_shared<const Terrain>(bench::make(Family::Fbm, 48));
  service::EngineCache cache;
  cache.add_terrain(1, terr);
  struct Vp {
    service::Viewpoint vp;
    const char* name;
  };
  for (const Vp v : {Vp{{.dir_x = 3, .dir_y = 4}, "az3-4"},
                     Vp{{.dir_x = 4, .dir_y = -3, .elev_num = 1, .elev_den = 4}, "az4-3el1-4"}}) {
    for (const Lane& ln : lanes()) {
      const std::string name = std::string("service/fbm/g48/") + v.name + lane_suffix(ln);
      if (!selected(cfg, name)) continue;
      const HsrOptions opt{.threads = 1, .backend = ln.backend};
      const TimedStats s = bench::measure(
          [&] { (void)cache.acquire(1, v.vp)->engine().solve(opt); }, cfg.warmup, cfg.reps);
      record(cases, name, s, ln);
    }
  }
}

/// Out-of-core streaming solves: the full pipeline (prescan, whole-slab
/// build/prepare/solve/scan tasks, aggregation) over an in-memory grid —
/// the wall clock of the pipeline whose bytes test_stream's residency test
/// bounds — and the same
/// pipeline from an `.asc` file on disk into a PGM on disk, so the lane
/// also times the row parser and the band writer. resident_slabs = 2 / 4
/// keeps several slab tasks in flight for the scaling lane; the peak
/// tracked residency is stamped next to the timing.
void run_stream_cases(CaseMap& cases, const Config& cfg) {
  const AscGrid g = support::stream_grid(32, 481, /*seed=*/11);
  for (const Lane& ln : lanes()) {
    const std::string name = std::string("stream/synth/c32r481/s32b2") + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    stream::StreamOptions opt;
    opt.slab_rows = 32;
    opt.resident_slabs = 2;
    opt.width = 160;
    opt.height = 120;
    opt.supersample = 2;
    opt.solve.threads = ln.threads;
    opt.solve.backend = ln.backend;
    u64 peak = 0;
    const TimedStats s = bench::measure(
        [&] {
          stream::NullBandSink sink;
          stream::GridRowSource src(g);
          peak = stream::stream_solve(src, opt, sink).peak_resident_bytes;
        },
        cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
    cases[name]["peak_resident_bytes"] = peak;
  }

  // File to file: a 12-column DEM a hundred slab windows tall.
  const std::string asc_path = cfg.out + ".stream.asc", pgm_path = cfg.out + ".stream.pgm";
  bool written = false;
  for (const Lane& ln : lanes()) {
    const std::string name = std::string("stream/asc-pgm/c12r800/s6b4") + lane_suffix(ln);
    if (!selected(cfg, name)) continue;
    if (!written) {
      save_asc_grid(support::stream_grid(12, 800, /*seed=*/7), asc_path);
      written = true;
    }
    stream::StreamOptions opt;
    opt.slab_rows = 6;
    opt.resident_slabs = 4;
    opt.width = 256;
    opt.height = 96;
    opt.solve.threads = ln.threads;
    opt.solve.backend = ln.backend;
    u64 peak = 0;
    const TimedStats s = bench::measure(
        [&] {
          stream::PgmCoverageBandSink sink(pgm_path, opt.width, opt.height);
          peak = stream::stream_solve_asc(asc_path, opt, sink).peak_resident_bytes;
          sink.finish();
        },
        cfg.warmup, cfg.reps);
    record(cases, name, s, ln);
    cases[name]["peak_resident_bytes"] = peak;
  }
  if (written) {
    std::remove(asc_path.c_str());
    std::remove(pgm_path.c_str());
  }
}

/// Resolution-bounded raster workloads (DESIGN.md section 1.12): the
/// end-to-end cost a raster consumer pays — warm solve plus scan-convert
/// at the budget's resolution — exact vs bounded on the dense-staircase
/// family whose counter drop bench_ci gates. Both cases land in one
/// artifact; the run prints a per-lane verdict marking the delta
/// significant only when it clears both cases' IQRs (the same bar as
/// --diff).
void run_bounded_cases(CaseMap& cases, const Config& cfg) {
  const Terrain terr = support::dense_staircase(48, /*seed=*/5);
  HsrEngine eng;
  eng.prepare(terr);
  for (const Lane& ln : lanes()) {
    raster::RasterOptions ropt;
    ropt.width = 64;
    ropt.height = 48;
    ropt.threads = ln.threads;
    ropt.backend = ln.backend;
    TimedStats timings[2]{};
    bool have[2]{false, false};
    for (const int bounded : {0, 1}) {
      const std::string name = std::string("bounded/stair/g48/r64/") +
                               (bounded ? "bounded" : "exact") + lane_suffix(ln);
      if (!selected(cfg, name)) continue;
      HsrOptions opt{
          .algorithm = Algorithm::Parallel, .threads = ln.threads, .backend = ln.backend};
      if (bounded) opt.pixel_budget = raster::pixel_budget(terr, ropt);
      const TimedStats s = bench::measure(
          [&] {
            HsrResult r = eng.solve(opt);
            (void)raster::rasterize(terr, r.map, ropt);
            eng.recycle(std::move(r));
          },
          cfg.warmup, cfg.reps);
      record(cases, name, s, ln);
      timings[bounded] = s;
      have[bounded] = true;
    }
    if (have[0] && have[1]) {
      const u64 e = timings[0].median_ns, b = timings[1].median_ns;
      const u64 delta = e > b ? e - b : b - e;
      const bool signif = delta > timings[0].iqr_ns && delta > timings[1].iqr_ns;
      std::cout << "  bounded/stair/g48/r64" << lane_suffix(ln) << ": bounded is "
                << Table::num(100.0 * (static_cast<double>(e) - static_cast<double>(b)) /
                                  static_cast<double>(e),
                              1)
                << "% faster than exact ("
                << (signif ? "significant: delta clears both IQRs" : "noise") << ")\n";
    }
  }
}

std::optional<CaseMap> load_artifact(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "bench_timed: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  bench::FlatU64Parser parser(buf.str());
  auto cases = parser.parse();
  if (!cases) std::cerr << "bench_timed: cannot parse " << path << "\n";
  return cases;
}

/// Informational two-artifact comparison, keyed strictly by case name
/// (bench::diff_rows — reordered or disjoint case sets pair up correctly).
/// A median delta only means something when it clears the noise floor of
/// both runs, so a case is flagged `signif` when |delta| exceeds each
/// run's IQR; everything else prints as noise. Never fails: timing is not
/// a CI gate.
int diff(const std::string& old_path, const std::string& new_path) {
  const auto a = load_artifact(old_path);
  const auto b = load_artifact(new_path);
  if (!a || !b) return 1;
  std::cout << "case, old median_ns, new median_ns, delta%, verdict\n";
  for (const bench::DiffRow& row : bench::diff_rows(*a, *b)) {
    if (row.presence == bench::DiffRow::Presence::OnlyNew) {
      std::cout << row.name << ": only in " << new_path << "\n";
    } else if (row.presence == bench::DiffRow::Presence::OnlyOld) {
      std::cout << row.name << ": only in " << old_path << "\n";
    } else if (row.comparable) {
      std::cout << row.name << ", " << row.old_median_ns << ", " << row.new_median_ns << ", "
                << Table::num(row.delta_pct, 2) << "%, "
                << (row.significant
                        ? (row.new_median_ns < row.old_median_ns ? "signif faster" : "signif slower")
                        : "noise")
                << "\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--out") {
      if (const char* v = next()) cfg.out = v;
    } else if (arg == "--reps") {
      if (const char* v = next()) cfg.reps = std::atoi(v);
    } else if (arg == "--warmup") {
      if (const char* v = next()) cfg.warmup = std::atoi(v);
    } else if (arg == "--filter") {
      if (const char* v = next()) cfg.filter = v;
    } else if (arg == "--quick") {
      cfg.reps = 3;
      cfg.warmup = 1;
    } else if (arg == "--diff") {
      const char* a = next();
      const char* b = next();
      if (!a || !b) {
        std::cerr << "usage: bench_timed --diff OLD.json NEW.json\n";
        return 2;
      }
      return diff(a, b);
    } else {
      std::cerr << "usage: bench_timed [--out FILE] [--reps N] [--warmup N] [--filter SUBSTR] "
                   "[--quick] | --diff OLD.json NEW.json\n";
      return 2;
    }
  }
  if (cfg.reps < 1 || cfg.warmup < 0) {
    std::cerr << "bench_timed: --reps must be >= 1 and --warmup >= 0\n";
    return 2;
  }

  std::cout << "bench_timed: " << cfg.reps << " reps, " << cfg.warmup << " warmup\n";

  thsr::work::reset();  // so the filter hit-rate meta below covers this run only
  CaseMap cases;
  run_prepare_cases(cases, cfg);
  run_engine_cases(cases, cfg);
  run_shard_cases(cases, cfg);
  run_raster_cases(cases, cfg);
  run_service_cases(cases, cfg);
  run_stream_cases(cases, cfg);
  run_bounded_cases(cases, cfg);

  std::map<std::string, std::string> meta;
  meta["git_sha"] = thsr::bench::git_sha();
  meta["host"] = thsr::bench::host_fingerprint();
  meta["reps"] = std::to_string(cfg.reps);
  meta["warmup"] = std::to_string(cfg.warmup);
  meta["timestamp"] = thsr::bench::utc_timestamp();
  {
    std::string names;
    for (const Lane& ln : lanes()) {
      if (!names.empty()) names += ",";
      names += par::backend_name(ln.backend);
      names += "/p" + std::to_string(ln.threads);
    }
    meta["lanes"] = names;
  }
  {
    // Predicate-filter telemetry across the whole run (all cases, warmups
    // included): hit rate of the f64 fast path vs exact i128 fallbacks.
    // "filter" records whether the fast path was live for this artifact.
    using thsr::Op;
    const thsr::Counters w = thsr::work::snapshot();
    const u64 fast = w[Op::FilterFast], exact = w[Op::FilterExact];
    meta["filter"] = thsr::filt::enabled() ? "on" : "off";
    meta["filter_fast"] = std::to_string(fast);
    meta["filter_exact_fallback"] = std::to_string(exact);
    meta["filter_fallback_permille"] =
        std::to_string(fast + exact == 0 ? 0 : 1000 * exact / (fast + exact));
  }

  thsr::bench::write_timed_json(cases, meta, cfg.out);
  std::cout << "wrote " << cases.size() << " cases to " << cfg.out << "\n";
  return 0;
}

/// viewshed — one caller, closed loop: each operation takes the next of a
/// set of distinct pregenerated terrains and runs a cold
/// HsrEngine::prepare, a solve with the library-default algorithm and
/// backend at threads = nproc, and raster::rasterize. The raster digest
/// must equal the one set-up computed with Algorithm::Reference.

#include <memory>
#include <optional>

#include "core/engine.hpp"
#include "raster/raster.hpp"
#include "separator/depth_order.hpp"
#include "terrain/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace thsr;

/// Families spanning k/n from one occluding wall to a fully visible
/// amphitheatre; an odd count keeps the median inside one family.
constexpr Family kFamilies[] = {Family::RidgeFront, Family::Valley, Family::Fbm, Family::Spikes,
                                Family::TerraceBack};

struct Input {
  Terrain terrain;
  u64 digest{0};
};

struct State {
  std::vector<Input> inputs;
  raster::RasterOptions ropt;
  HsrOptions sopt;
};

u64 raster_digest(const raster::ImageRaster& img) {
  u64 h = fnv1a(&img.width, sizeof img.width);
  h = fnv1a(&img.height, sizeof img.height, h);
  h = fnv1a_vec(img.ids, h);
  h = fnv1a_vec(img.depth, h);
  return fnv1a_vec(img.coverage, h);
}

std::unique_ptr<State> make_state(const Plan& plan) {
  const u32 grid = plan.quick ? 24 : 96;
  const int per_family = plan.quick ? 1 : 2;
  auto st = std::make_unique<State>();
  st->sopt.threads = plan.threads;
  st->ropt.threads = plan.threads;
  HsrOptions ref_opt;
  ref_opt.algorithm = Algorithm::Reference;
  ref_opt.threads = plan.threads;
  for (int rep = 0; rep < per_family; ++rep) {
    for (const Family f : kFamilies) {
      GenOptions g;
      g.family = f;
      g.grid = grid;
      g.seed = mix(plan.seed * 64 + st->inputs.size());
      Input in{make_terrain(g), 0};
      const HsrResult ref = hidden_surface_removal(in.terrain, ref_opt);
      in.digest = raster_digest(raster::rasterize(in.terrain, ref.map, st->ropt));
      st->inputs.push_back(std::move(in));
    }
  }
  return st;
}

/// Exact per-map counts, recorded the first time each input is solved.
struct Counts {
  double k_pieces{0}, merge_events{0}, env_pieces{0}, treap_nodes{0}, oracle_queries{0},
      oracle_steps{0}, filter_fast{0}, filter_exact{0}, constraints{0}, crossings{0},
      hit_samples{0};
};

}  // namespace

Outcome run_viewshed(const Plan& plan) {
  Outcome out;
  std::unique_ptr<State> st;
  const double setup_s = timed_setup(plan.setup_reps, st, [&] { return make_state(plan); });
  const std::size_t n_in = st->inputs.size();

  std::vector<double> lat_plain, lat_traced, phase1, phase2, arena_mb;
  std::vector<Counts> counts(n_in);
  std::vector<bool> counted(n_in, false);
  // Traced runs alternate whole cycles over the inputs traced/untraced, so
  // both halves see the same mix; they run at least two cycles.
  const std::size_t min_ops = plan.traced ? 2 * n_in : 1;

  PeakWindows mem;
  const u64 t_start = now_ns();
  const u64 budget = static_cast<u64>(plan.seconds * 1e9);
  std::size_t op = 0;
  for (; op < min_ops || now_ns() - t_start < budget; ++op) {
    const std::size_t idx = op % n_in;
    const bool traced = plan.traced && (op / n_in) % 2 == 0;
    const Terrain& t = st->inputs[idx].terrain;
    const u64 id = next_op_id();
    Tracer::enable(traced);
    bool ok = false;
    const u64 t0 = now_ns();
    try {
      Span whole("viewshed.op", id);
      auto eng = std::make_unique<HsrEngine>();
      {
        Span s("core.prepare", id);
        eng->prepare(t);
      }
      std::optional<HsrResult> r;
      {
        Span s("core.solve", id);
        r = eng->solve(st->sopt);
      }
      std::optional<raster::ImageRaster> img;
      {
        Span s("raster.rasterize", id);
        img = raster::rasterize(t, r->map, st->ropt);
      }
      {
        Span s("bench.verify", id);
        ok = raster_digest(*img) == st->inputs[idx].digest;
      }
      if (plan.traced) {
        if (!counted[idx]) {
          const Counters& w = r->stats.work;
          Counts& c = counts[idx];
          c.k_pieces = static_cast<double>(r->stats.k_pieces);
          c.merge_events = static_cast<double>(w[Op::MergeEvent]);
          c.env_pieces = static_cast<double>(w[Op::EnvPiece]);
          c.treap_nodes = static_cast<double>(r->stats.treap_nodes);
          c.oracle_queries = static_cast<double>(w[Op::OracleQuery]);
          c.oracle_steps = static_cast<double>(w[Op::OracleStep]);
          c.filter_fast = static_cast<double>(w[Op::FilterFast]);
          c.filter_exact = static_cast<double>(w[Op::FilterExact]);
          c.constraints = static_cast<double>(r->stats.depth_constraints);
          c.crossings = static_cast<double>(img->crossings);
          c.hit_samples = static_cast<double>(img->hit_samples);
          counted[idx] = true;
        }
        if (traced) {
          phase1.push_back(r->stats.phase1_s * 1e3);
          phase2.push_back(r->stats.phase2_s * 1e3);
          arena_mb.push_back(static_cast<double>(eng->arena_footprint_bytes()) / (1 << 20));
        }
      }
      Span s("core.release", id);
      img.reset();
      r.reset();
      eng.reset();
    } catch (const std::exception& e) {
      out.report.push_back(std::string("  viewshed op failed: ") + e.what());
    }
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    (traced ? lat_traced : lat_plain).push_back(ms);
    ++out.attempted;
    if (!ok) ++out.failed;
    mem.tick();

    if (traced) {
      // Per-layer probes outside the operation: the depth order alone, and
      // the same solve on one thread for the parallel efficiency.
      {
        Span s("separator.depth_order", id);
        (void)compute_depth_order(t);
      }
      HsrEngine probe;
      probe.prepare(t);
      HsrOptions p1 = st->sopt;
      p1.threads = 1;
      Span s("parallel.solve_p1", id);
      (void)probe.solve(p1);
    }
  }
  Tracer::enable(false);
  const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;

  const Tail tl = tail(lat_plain, 0.90);
  const double p50 = median(lat_plain);
  char note[160];
  out.report.push_back("viewshed: " + std::to_string(n_in) + " terrains (g" +
                       std::to_string(plan.quick ? 24 : 96) + ", 5 families), threads " +
                       std::to_string(plan.threads) + ", backend " +
                       par::backend_name(par::backend()) + ", algorithm " +
                       algorithm_name(st->sopt.algorithm));
  std::snprintf(note, sizeof note, "(n=%zu maps in %.2f s)", out.attempted, elapsed);
  out.report.push_back(report_line("viewshed.maps_per_s", out.attempted / elapsed, "1/s", note));
  std::snprintf(note, sizeof note, "(median of %zu)", lat_plain.size());
  out.report.push_back(report_line("viewshed.p50_ms", p50, "ms", note));
  std::snprintf(note, sizeof note, "(p%.0f of %zu, %zu beyond)", tl.q * 100, lat_plain.size(),
                tl.beyond);
  out.report.push_back(report_line("viewshed.p90_ms", tl.value, "ms", note));
  out.report.push_back(report_line("viewshed.peak_rss_mb", mem.median_mb(), "MB", "(median 1-s VmHWM)"));
  out.report.push_back(report_line("viewshed.failed_ratio",
                                   static_cast<double>(out.failed) / out.attempted, "ratio"));
  put_e2e(out, setup_s, out.attempted / elapsed, p50, tl.value, mem.median_mb());

  if (plan.traced) {
    const auto med_of = [](const std::map<u64, double>& m) {
      std::vector<double> v;
      for (const auto& kv : m) v.push_back(kv.second);
      return median(std::move(v));
    };
    const double solve_ms = med_of(Tracer::ms_by_op("core.solve"));
    const double p1_ms = med_of(Tracer::ms_by_op("parallel.solve_p1"));
    Counts sum;
    for (const Counts& c : counts) {
      sum.k_pieces += c.k_pieces;
      sum.merge_events += c.merge_events;
      sum.env_pieces += c.env_pieces;
      sum.treap_nodes += c.treap_nodes;
      sum.oracle_queries += c.oracle_queries;
      sum.oracle_steps += c.oracle_steps;
      sum.filter_fast += c.filter_fast;
      sum.filter_exact += c.filter_exact;
      sum.constraints += c.constraints;
      sum.crossings += c.crossings;
      sum.hit_samples += c.hit_samples;
    }
    const double n = static_cast<double>(n_in);
    const double preds = sum.filter_fast + sum.filter_exact;
    Metrics& L = out.layer;
    L["core.prepare_ms"] = {med_of(Tracer::ms_by_op("core.prepare")), "ms"};
    L["separator.depth_order_ms"] = {med_of(Tracer::ms_by_op("separator.depth_order")), "ms"};
    L["core.solve_ms"] = {solve_ms, "ms"};
    L["core.phase1_ms"] = {median(phase1), "ms"};
    L["core.phase2_ms"] = {median(phase2), "ms"};
    L["raster.rasterize_ms"] = {med_of(Tracer::ms_by_op("raster.rasterize")), "ms"};
    L["parallel.solve_ms_p1"] = {p1_ms, "ms"};
    L["parallel.efficiency"] = {solve_ms > 0 ? p1_ms / (plan.threads * solve_ms) : 0.0, "ratio"};
    L["core.k_pieces"] = {sum.k_pieces / n, "count"};
    L["core.merge_events"] = {sum.merge_events / n, "count"};
    L["envelope.env_pieces"] = {sum.env_pieces / n, "count"};
    L["persist.treap_nodes"] = {sum.treap_nodes / n, "count"};
    L["cg.oracle_queries"] = {sum.oracle_queries / n, "count"};
    L["cg.oracle_steps"] = {sum.oracle_steps / n, "count"};
    L["geometry.predicates"] = {preds / n, "count"};
    L["geometry.fallback_permille"] = {preds > 0 ? 1000.0 * sum.filter_exact / preds : 0.0,
                                       "permille"};
    L["separator.constraints"] = {sum.constraints / n, "count"};
    L["raster.crossings"] = {sum.crossings / n, "count"};
    L["raster.hit_samples"] = {sum.hit_samples / n, "count"};
    L["core.arena_mb"] = {median(arena_mb), "MB"};
    L["trace.coverage_pct"] = {100.0 * Tracer::coverage("viewshed.op"), "%"};
    L["trace.overhead_pct"] = {overhead_pct(lat_traced, lat_plain), "%"};
  }
  return out;
}

}  // namespace perfbench

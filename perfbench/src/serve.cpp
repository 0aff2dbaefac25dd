/// serve — a QueryServer with nproc-1 workers on one fbm terrain; the main
/// thread keeps one query outstanding per worker (closed loop). About 90%
/// of queries ask for a resident hot set of viewpoints, the rest for fresh
/// admissible ones: ground-preserving shears (the order-transfer rung) and
/// rotations (full prepare). The cache budget is derived in set-up from
/// the hot set's measured footprint, so the hot set stays resident while
/// fresh entries evict each other. Every reply map must equal a set-up
/// direct solve of transform_terrain for its viewpoint.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>

#include "core/hsr.hpp"
#include "service/query_server.hpp"
#include "terrain/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace thsr;
using service::QueryReply;
using service::QueryServer;
using service::Viewpoint;

constexpr u64 kTerrainId = 1;
constexpr double kHotShare = 0.9;

struct View {
  Viewpoint vp;
  HsrResult ref;  ///< direct solve of the transformed terrain
};

struct State {
  std::shared_ptr<const Terrain> terrain;
  std::vector<View> hot, fresh;
  int workers{1};
  u64 hot_bytes{0}, budget{0};
  std::unique_ptr<QueryServer> server;
};

/// Submit every hot viewpoint `rounds` times and wait for the replies.
void warm_hot(QueryServer& server, const std::vector<View>& hot, int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (const View& v : hot) {
      service::Query q;
      q.terrain_id = kTerrainId;
      q.viewpoint = v.vp;
      server.submit(std::move(q), [](QueryReply&&) {});
    }
  }
  server.drain();
}

/// The resident hot set: the canonical frame (the base the order-transfer
/// rung reads its depth order from), two shears and five rotations at
/// shallow slopes, so a query's cost does not hinge on the run seed.
const Viewpoint kHot[] = {{1, 0, 0, 1},  {1, 0, 1, 8}, {1, 0, -1, 8}, {0, 1, 0, 1},
                          {-1, 0, 0, 1}, {0, -1, 1, 8}, {1, 1, 0, 1}, {1, -1, 1, 8}};

/// The fresh pool: distinct admissible viewpoints outside the hot set with
/// small integer direction and slope at most 1/4, shears and rotations
/// alternating, in a seeded order.
std::vector<Viewpoint> fresh_pool(std::mt19937_64& rng, i64 max_abs, std::size_t n) {
  std::vector<Viewpoint> shears, rotations, seen;
  for (const Viewpoint& v : kHot) seen.push_back(service::canonical(v));
  for (i64 dx = -2; dx <= 2; ++dx) {
    for (i64 dy = -2; dy <= 2; ++dy) {
      for (i64 num = -1; num <= 1; ++num) {
        for (i64 den = 4; den <= 12; ++den) {
          if (dx == 0 && dy == 0) continue;
          const Viewpoint v = service::canonical(Viewpoint{dx, dy, num, den});
          if (!service::admissible(v, max_abs) ||
              std::find(seen.begin(), seen.end(), v) != seen.end()) {
            continue;
          }
          seen.push_back(v);
          (service::ground_preserving(v) ? shears : rotations).push_back(v);
        }
      }
    }
  }
  std::shuffle(shears.begin(), shears.end(), rng);
  std::shuffle(rotations.begin(), rotations.end(), rng);
  std::vector<Viewpoint> out;
  while (out.size() < n && !(shears.empty() && rotations.empty())) {
    auto& from = (out.size() % 2 == 0 && !shears.empty()) || rotations.empty() ? shears
                                                                             : rotations;
    out.push_back(from.back());
    from.pop_back();
  }
  if (out.size() < n) throw std::runtime_error("serve: too few admissible viewpoints");
  return out;
}

std::unique_ptr<State> make_state(const Plan& plan) {
  auto st = std::make_unique<State>();
  st->workers = std::max(1, plan.threads - 1);
  GenOptions g;
  g.family = Family::Fbm;
  g.grid = plan.quick ? 16 : 48;
  g.seed = mix(plan.seed ^ 0x5e4e);
  st->terrain = std::make_shared<const Terrain>(make_terrain(g));

  std::mt19937_64 rng(mix(plan.seed ^ 0x7e11));
  const std::vector<Viewpoint> hot(std::begin(kHot), std::end(kHot) - (plan.quick ? 5 : 0));
  const std::vector<Viewpoint> fresh =
      fresh_pool(rng, st->terrain->max_abs_coord(), plan.quick ? 6 : 48);
  HsrOptions ref_opt;
  ref_opt.algorithm = Algorithm::Sequential;
  ref_opt.threads = plan.threads;
  const auto solve_ref = [&](const Viewpoint& vp) {
    return View{vp, hidden_surface_removal(service::transform_terrain(*st->terrain, vp), ref_opt)};
  };
  for (const Viewpoint& vp : hot) st->hot.push_back(solve_ref(vp));
  for (const Viewpoint& vp : fresh) st->fresh.push_back(solve_ref(vp));

  // Measure the hot set's resident footprint on an unbounded cache, warmed
  // with the same concurrency the measured loop has.
  service::ServerOptions so;
  so.workers = st->workers;
  u64 max_entry = 0;
  {
    so.cache.byte_budget = ~u64{0};
    QueryServer probe(so);
    probe.add_terrain(kTerrainId, st->terrain);
    warm_hot(probe, st->hot, 3);
    for (const View& v : st->hot) {
      max_entry = std::max(max_entry, probe.cache().acquire(kTerrainId, v.vp)->footprint_bytes());
    }
    st->hot_bytes = probe.cache_stats().resident_bytes;
  }
  // Room for the hot set plus three fresh entries.
  st->budget = st->hot_bytes + 3 * max_entry;
  so.cache.byte_budget = st->budget;
  st->server = std::make_unique<QueryServer>(so);
  st->server->add_terrain(kTerrainId, st->terrain);
  warm_hot(*st->server, st->hot, 3);
  return st;
}

struct Sample {
  double client_ms, solve_ms, wait_ms;
  bool hit, traced;
};

/// The closed loop: `workers` queries in flight until `seconds` pass, then
/// drain. Appends one Sample per reply when `record`; returns the elapsed
/// seconds from first submit to last reply.
double closed_loop(State& st, const Plan& plan, std::mt19937_64& rng, std::size_t& fresh_next,
                   double seconds, PeakWindows* mem, Outcome& out, std::vector<Sample>& samples) {
  const bool record = mem != nullptr;
  struct Done {
    QueryReply reply;
    u64 t_cb;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Done> done;  // guarded by mu
  struct Slot {
    const View* view{nullptr};
    u64 t_submit{0}, t_submitted{0}, id{0};
    bool traced{false};
  };
  std::vector<Slot> slots(static_cast<std::size_t>(st.workers));
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  u64 submitted = 0;

  const auto submit = [&](std::size_t slot) {
    Slot& s = slots[slot];
    if (u01(rng) < kHotShare) {
      s.view = &st.hot[rng() % st.hot.size()];
    } else {
      s.view = &st.fresh[fresh_next++ % st.fresh.size()];
    }
    s.id = next_op_id();
    s.traced = plan.traced && record && (submitted++ % 2 == 0);
    service::Query q;
    q.terrain_id = kTerrainId;
    q.viewpoint = s.view->vp;
    q.tag = slot;
    s.t_submit = now_ns();
    const bool accepted = st.server->submit(std::move(q), [&](QueryReply&& r) {
      const u64 t = now_ns();
      // Notify under the lock: once it is released the loop may return and
      // destroy mu/cv, so the worker must not touch them afterwards.
      std::lock_guard<std::mutex> lk(mu);
      done.push_back(Done{std::move(r), t});
      cv.notify_one();
    });
    s.t_submitted = now_ns();
    if (!accepted && record) {
      ++out.attempted;  // a refused query counts as failed
      ++out.failed;
    }
    return accepted;
  };

  const u64 t_start = now_ns();
  const u64 budget = static_cast<u64>(seconds * 1e9);
  std::size_t outstanding = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) outstanding += submit(i);
  u64 t_last = t_start;
  while (outstanding > 0) {
    Done d;
    {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return !done.empty(); });
      d = std::move(done.front());
      done.pop_front();
    }
    const u64 t_recv = now_ns();
    t_last = t_recv;
    --outstanding;
    const std::size_t slot = d.reply.tag;
    const Slot s = slots[slot];
    // Resubmit before checking, so the worker never idles.
    if (t_recv - t_start < budget) outstanding += submit(slot);
    if (!record) continue;
    mem->tick();

    const QueryReply& r = d.reply;
    const bool ok = r.status == service::QueryStatus::Ok && r.result &&
                    r.result->stats.k_pieces == s.view->ref.stats.k_pieces &&
                    !r.result->map.first_difference(s.view->ref.map);
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      if (!r.error.empty()) out.report.push_back("  serve query failed: " + r.error);
    }
    samples.push_back(Sample{static_cast<double>(t_recv - s.t_submit) * 1e-6,
                             static_cast<double>(r.solve_ns) * 1e-6,
                             static_cast<double>(r.latency_ns - r.solve_ns) * 1e-6, r.cache_hit,
                             s.traced});
    if (s.traced) {
      const u64 solve_from = d.t_cb - r.solve_ns;
      Tracer::record("serve.query", s.t_submit, t_recv, s.id);
      Tracer::record("service.submit", s.t_submit, s.t_submitted, s.id);
      Tracer::record("service.queue_acquire", d.t_cb - r.latency_ns, solve_from, s.id, true);
      Tracer::record("core.solve", solve_from, d.t_cb, s.id, true);
      Tracer::record("bench.handoff", d.t_cb, t_recv, s.id);
    }
  }
  return static_cast<double>(t_last - t_start) * 1e-9;
}

}  // namespace

Outcome run_serve(const Plan& plan) {
  Outcome out;
  std::unique_ptr<State> st;
  const double setup_s = timed_setup(plan.setup_reps, st, [&] { return make_state(plan); });

  std::mt19937_64 rng(mix(plan.seed ^ 0x9e71));
  std::size_t fresh_next = 0;
  std::vector<Sample> samples;
  closed_loop(*st, plan, rng, fresh_next, plan.quick ? 0.1 : 0.5, nullptr, out, samples);

  const service::EngineCache::Stats c0 = st->server->cache_stats();
  PeakWindows mem;
  const double elapsed = closed_loop(*st, plan, rng, fresh_next, plan.seconds, &mem, out, samples);
  const double peak_mb = mem.median_mb();
  const service::EngineCache::Stats c1 = st->server->cache_stats();

  std::vector<double> lat, lat_traced, lat_plain, solve, hit_wait, miss_wait;
  for (const Sample& s : samples) {
    lat.push_back(s.client_ms);
    (s.traced ? lat_traced : lat_plain).push_back(s.client_ms);
    solve.push_back(s.solve_ms);
    (s.hit ? hit_wait : miss_wait).push_back(s.wait_ms);
  }
  const double qps = static_cast<double>(samples.size()) / elapsed;
  const Tail tl = tail(lat, 0.99);
  const double p50 = median(lat);
  const u64 hits = c1.hits - c0.hits, misses = c1.misses - c0.misses;
  const double per_kq = 1000.0 / static_cast<double>(std::max<std::size_t>(samples.size(), 1));

  char note[200];
  std::snprintf(note, sizeof note,
                "serve: fbm g%u, %d workers, hot set %zu (%.0f%%), fresh pool %zu, cache budget "
                "%.2f MB (hot set %.2f MB)",
                plan.quick ? 16u : 48u, st->workers, st->hot.size(), kHotShare * 100,
                st->fresh.size(), st->budget / 1048576.0, st->hot_bytes / 1048576.0);
  out.report.push_back(note);
  std::snprintf(note, sizeof note, "(n=%zu queries in %.2f s)", samples.size(), elapsed);
  out.report.push_back(report_line("serve.qps", qps, "1/s", note));
  std::snprintf(note, sizeof note, "(median of %zu)", lat.size());
  out.report.push_back(report_line("serve.p50_ms", p50, "ms", note));
  std::snprintf(note, sizeof note, "(p%.0f of %zu, %zu beyond)", tl.q * 100, lat.size(),
                tl.beyond);
  out.report.push_back(report_line("serve.p99_ms", tl.value, "ms", note));
  out.report.push_back(report_line("serve.peak_rss_mb", peak_mb, "MB", "(median 1-s VmHWM)"));
  out.report.push_back(report_line(
      "serve.failed_ratio", static_cast<double>(out.failed) / std::max<u64>(out.attempted, 1),
      "ratio"));
  std::snprintf(note, sizeof note, "  cache: %llu hits, %llu misses, %llu evictions, %llu order transfers",
                static_cast<unsigned long long>(hits), static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(c1.evictions - c0.evictions),
                static_cast<unsigned long long>(c1.order_transfers - c0.order_transfers));
  out.report.push_back(note);
  put_e2e(out, setup_s, qps, p50, tl.value, peak_mb);

  if (plan.traced) {
    Metrics& L = out.layer;
    L["service.solve_ms_p50"] = {median(solve), "ms"};
    L["service.hit_wait_ms_p50"] = {median(hit_wait), "ms"};
    L["service.miss_wait_ms_p50"] = {median(miss_wait), "ms"};
    L["service.hit_ratio"] = {hits + misses ? static_cast<double>(hits) / (hits + misses) : 0.0,
                              "ratio"};
    L["service.order_transfers"] = {(c1.order_transfers - c0.order_transfers) * per_kq,
                                    "per_kquery"};
    L["service.evictions"] = {(c1.evictions - c0.evictions) * per_kq, "per_kquery"};
    L["service.resident_mb"] = {c1.resident_bytes / 1048576.0, "MB"};
    L["trace.coverage_pct"] = {100.0 * Tracer::coverage("serve.query"), "%"};
    L["trace.overhead_pct"] = {overhead_pct(lat_traced, lat_plain), "%"};
  }
  st->server->stop();
  return out;
}

}  // namespace perfbench

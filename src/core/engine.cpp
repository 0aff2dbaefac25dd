#include "core/engine.hpp"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/detail.hpp"
#include "parallel/backend.hpp"
#include "support/check.hpp"

namespace thsr {

struct HsrEngine::Impl {
  detail::HsrContext ctx;
  detail::Workspace ws;       ///< solve() workspace; batch items use the pool
  Counters prepare_work;      ///< ops counted while building ctx
  double order_s{0};
  bool prepared{false};

  // Workspace pool for in-flight batch items: at most one per concurrently
  // running item, retained across batches so their arenas warm up too.
  std::mutex pool_mu;
  std::vector<std::unique_ptr<detail::Workspace>> pool;
  std::vector<detail::Workspace*> pool_free;

  detail::Workspace* acquire_ws() {
    std::lock_guard<std::mutex> lk(pool_mu);
    if (!pool_free.empty()) {
      detail::Workspace* ws = pool_free.back();
      pool_free.pop_back();
      return ws;
    }
    pool.push_back(std::make_unique<detail::Workspace>());
    return pool.back().get();
  }

  void release_ws(detail::Workspace* ws) {
    std::lock_guard<std::mutex> lk(pool_mu);
    pool_free.push_back(ws);
  }
};

namespace {

/// Build the PCT on first need. Only the Parallel algorithm reads it; it
/// is a pure function of the edge count (no counted ops), so laziness is
/// invisible to results and counters. Must run before solves fan out —
/// concurrent batch items share the context read-only.
void ensure_pct(detail::HsrContext& ctx, const HsrOptions& opt) {
  const auto n = static_cast<u32>(ctx.terrain->edge_count());
  if (opt.algorithm == Algorithm::Parallel && !ctx.pct && n > 0) ctx.pct.emplace(n);
}

/// One solve against a prepared context. `thread_scope` selects per-thread
/// counter attribution (exact when the caller runs the solve entirely on
/// one thread, i.e. inside a par::SerialRegion) over the global snapshot a
/// single-threaded driver uses.
HsrResult solve_on(detail::HsrContext& ctx, detail::Workspace& ws, const Counters& prepare_work,
                   double order_s, const HsrOptions& opt, bool thread_scope) {
  detail::Timer total;
  // Inside the timer: when this solve is the one that triggers the lazy
  // PCT build, its cost must show up in total_s (solve_batch pre-builds
  // before fan-out, making this a no-op there).
  ensure_pct(ctx, opt);
  HsrStats stats;
  stats.order_s = order_s;
  stats.n_edges = ctx.terrain->edge_count();
  stats.n_slivers = ctx.n_slivers;
  stats.depth_constraints = ctx.order.constraints;

  ws.arena.reset();  // recycle every block from the previous solve
  const Counters before = thread_scope ? work::local_snapshot() : work::snapshot();

  // Resolution-bounded solve: one predicate instance, shared read-only by
  // every thread of this solve (BoundedPrune validates the budget).
  std::optional<BoundedPrune> bounded;
  if (opt.pixel_budget) bounded.emplace(*opt.pixel_budget);
  const BoundedPrune* prune = bounded ? &*bounded : nullptr;

  VisibilityMap map{0};
  switch (opt.algorithm) {
    case Algorithm::Reference: map = detail::run_reference(ctx, ws, stats, prune); break;
    case Algorithm::Sequential: map = detail::run_sequential(ctx, ws, stats, prune); break;
    case Algorithm::Parallel:
      map = detail::run_parallel(ctx, ws, stats, opt.collect_layer_stats, opt.phase2_oracle,
                                 prune);
      break;
  }

  Counters delta = thread_scope ? work::local_snapshot() : work::snapshot();
  delta -= before;
  stats.work = prepare_work;
  stats.work += delta;
  stats.k_pieces = map.k_pieces();
  stats.k_crossings = map.k_crossings();
  stats.total_s = order_s + total.seconds();
  return HsrResult{std::move(map), std::move(stats)};
}

}  // namespace

HsrEngine::HsrEngine() : impl_(std::make_unique<Impl>()) {}
HsrEngine::~HsrEngine() = default;
HsrEngine::HsrEngine(HsrEngine&&) noexcept = default;
HsrEngine& HsrEngine::operator=(HsrEngine&&) noexcept = default;

namespace {

/// Evict the previous terrain's derived state; keep the raw memory.
void recycle_workspace(detail::Workspace& ws) {
  ws.arena.reset();
  ws.env.clear();
  ws.inherited.clear();
}

}  // namespace

void HsrEngine::prepare(const Terrain& t) {
  Impl& im = *impl_;
  const par::SerialRegion serial;  // whole preparation inline on this thread
  const Counters before = work::local_snapshot();
  detail::Timer order_timer;
  im.ctx = detail::make_context(t);
  im.order_s = order_timer.seconds();
  Counters delta = work::local_snapshot();
  delta -= before;
  im.prepare_work = delta;
  recycle_workspace(im.ws);
  im.prepared = true;
}

void HsrEngine::prepare_with_order_of(const Terrain& t, const HsrEngine& base) {
  Impl& im = *impl_;
  const Impl& bi = *base.impl_;
  THSR_CHECK(bi.prepared);
  const Terrain& bt = *bi.ctx.terrain;
  const bool same_shape = t.vertex_count() == bt.vertex_count() &&
                          t.triangle_count() == bt.triangle_count() &&
                          t.edge_count() == bt.edge_count();
  bool same_ground = same_shape;
  if (same_shape) {
    for (u32 i = 0; same_ground && i < t.vertex_count(); ++i) {
      const Vertex3 &a = t.vertex(i), &b = bt.vertex(i);
      same_ground = a.x == b.x && a.y == b.y;
    }
    for (std::size_t i = 0; same_ground && i < t.triangle_count(); ++i) {
      const Triangle &a = t.triangles()[i], &b = bt.triangles()[i];
      same_ground = a.a == b.a && a.b == b.b && a.c == b.c;
    }
  }
  if (!same_ground) {
    throw std::invalid_argument(
        "prepare_with_order_of: terrains differ in topology or ground projection");
  }
  // Ground projections agree, so the sliver classification and the depth
  // order — functions of ground coordinates only — transfer verbatim; only
  // the image-plane segment table depends on the new heights. The PCT is
  // left for the usual lazy build (a pure function of the edge count).
  detail::Timer order_timer;
  detail::HsrContext ctx;
  ctx.terrain = &t;
  const auto n = static_cast<u32>(t.edge_count());
  ctx.segs.resize(n, Seg2{0, 0, 1, 0});
  ctx.is_sliver = bi.ctx.is_sliver;
  ctx.n_slivers = bi.ctx.n_slivers;
  ctx.order = bi.ctx.order;
  for (u32 e = 0; e < n; ++e) {
    if (!ctx.is_sliver[e]) ctx.segs[e] = t.image_segment(e);
  }
  im.ctx = std::move(ctx);
  im.order_s = order_timer.seconds();
  // Depth ordering counts only ground-coordinate operations, so the work a
  // fresh preparation of `t` would have counted is exactly what base
  // counted (tests/test_service.cpp pins this equality).
  im.prepare_work = bi.prepare_work;
  recycle_workspace(im.ws);
  im.prepared = true;
}

void HsrEngine::ensure_parallel_ready() {
  Impl& im = *impl_;
  THSR_CHECK(im.prepared);
  ensure_pct(im.ctx, HsrOptions{.algorithm = Algorithm::Parallel});
}

bool HsrEngine::prepared() const noexcept { return impl_->prepared; }

const Terrain* HsrEngine::terrain() const noexcept {
  return impl_->prepared ? impl_->ctx.terrain : nullptr;
}

HsrResult HsrEngine::solve(const HsrOptions& opt) {
  Impl& im = *impl_;
  THSR_CHECK(im.prepared);
  const par::ScopedConfig cfg(opt.threads, opt.backend);
  return solve_on(im.ctx, im.ws, im.prepare_work, im.order_s, opt, /*thread_scope=*/false);
}

HsrResult HsrEngine::solve_scoped(const HsrOptions& opt) {
  Impl& im = *impl_;
  THSR_CHECK(im.prepared);
  THSR_CHECK(opt.threads == 0 && !opt.backend);  // the caller owns the executor config
  const par::SerialRegion serial;  // whole solve on this thread: exact attribution
  struct Lease {                   // exception-safe return to the pool
    Impl& im;
    detail::Workspace* ws{im.acquire_ws()};
    ~Lease() { im.release_ws(ws); }
  } lease{im};
  return solve_on(im.ctx, *lease.ws, im.prepare_work, im.order_s, opt, /*thread_scope=*/true);
}

std::vector<HsrResult> HsrEngine::solve_batch(std::span<const HsrOptions> opts) {
  Impl& im = *impl_;
  THSR_CHECK(im.prepared);
  for (const HsrOptions& o : opts) {
    THSR_CHECK(o.threads == 0 && !o.backend);  // per-item executors are not representable
    ensure_pct(im.ctx, o);                     // before items share ctx read-only
  }

  std::vector<std::optional<HsrResult>> tmp(opts.size());
  par::fan_items(opts.size(), [&](std::size_t i) { tmp[i] = solve_scoped(opts[i]); });

  std::vector<HsrResult> out;
  out.reserve(opts.size());
  for (auto& r : tmp) out.push_back(std::move(*r));
  return out;
}

void HsrEngine::recycle(HsrResult&& r) {
  impl_->ws.map_storage = std::move(r.map).release();
}

u64 HsrEngine::arena_nodes() const noexcept { return impl_->ws.arena.node_count(); }

u64 HsrEngine::arena_blocks() const noexcept { return impl_->ws.arena.allocated(); }

u64 HsrEngine::arena_footprint_bytes() const noexcept {
  Impl& im = *impl_;
  u64 bytes = im.ws.arena.footprint_bytes();
  std::lock_guard<std::mutex> lk(im.pool_mu);
  for (const auto& ws : im.pool) bytes += ws->arena.footprint_bytes();
  return bytes;
}

double HsrEngine::prepare_seconds() const noexcept { return impl_->order_s; }

}  // namespace thsr

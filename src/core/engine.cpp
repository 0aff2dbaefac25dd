#include "core/engine.hpp"

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/detail.hpp"
#include "parallel/backend.hpp"

namespace thsr {

struct HsrEngine::Impl {
  detail::HsrContext ctx;
  Counters prepare_work;  ///< ops counted while building ctx
  double order_s{0};
  bool prepared{false};

  void require_prepared(const char* what) const {
    if (!prepared) throw std::logic_error(std::string("HsrEngine::") + what + " before prepare()");
  }

  // Workspace pool: every solve leases one, so concurrent solves never
  // share scratch, and all are retained so their arenas stay warm. The
  // free list is LIFO: a lone caller always gets the same workspace back.
  mutable std::mutex pool_mu;
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

  /// `f` summed over every workspace.
  template <typename F>
  u64 sum_ws(F f) const {
    std::lock_guard<std::mutex> lk(pool_mu);
    u64 total = 0;
    for (const auto& ws : pool) total += f(*ws);
    return total;
  }

  /// Evict the previous terrain's derived state; keep the raw memory.
  void recycle_workspaces() {
    std::lock_guard<std::mutex> lk(pool_mu);
    for (const auto& ws : pool) {
      ws->arena.reset();
      ws->env.clear();
      ws->inherited.clear();
    }
  }
};

HsrEngine::HsrEngine() : impl_(std::make_unique<Impl>()) {}
HsrEngine::~HsrEngine() = default;
HsrEngine::HsrEngine(HsrEngine&&) noexcept = default;
HsrEngine& HsrEngine::operator=(HsrEngine&&) noexcept = default;

void HsrEngine::prepare(const Terrain& t) {
  Impl& im = *impl_;
  const par::ScopedConfig serial(1, std::nullopt);  // whole preparation inline on this thread
  const Counters before = work::local_snapshot();
  const Stopwatch order_timer;
  im.ctx = detail::make_context(t);
  im.order_s = order_timer.seconds();
  Counters delta = work::local_snapshot();
  delta -= before;
  im.prepare_work = delta;
  im.recycle_workspaces();
  im.prepared = true;
}

void HsrEngine::prepare_with_order_of(const Terrain& t, const HsrEngine& base) {
  Impl& im = *impl_;
  const Impl& bi = *base.impl_;
  if (!bi.prepared) throw std::logic_error("prepare_with_order_of: base engine is not prepared");
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
  // order — functions of ground coordinates only — transfer verbatim, and
  // so does the PCT (a function of the edge count); only the image-plane
  // segment table depends on the new heights.
  const Stopwatch order_timer;
  detail::HsrContext ctx;
  ctx.terrain = &t;
  const auto n = static_cast<u32>(t.edge_count());
  ctx.segs.resize(n, Seg2{0, 0, 1, 0});
  ctx.is_sliver = bi.ctx.is_sliver;
  ctx.n_slivers = bi.ctx.n_slivers;
  ctx.order = bi.ctx.order;
  ctx.pct = bi.ctx.pct;
  for (u32 e = 0; e < n; ++e) {
    if (!ctx.is_sliver[e]) ctx.segs[e] = t.image_segment(e);
  }
  im.ctx = std::move(ctx);
  im.order_s = order_timer.seconds();
  // Depth ordering counts only ground-coordinate operations, so the work a
  // fresh preparation of `t` would have counted is exactly what base
  // counted (tests/test_service.cpp pins this equality).
  im.prepare_work = bi.prepare_work;
  im.recycle_workspaces();
  im.prepared = true;
}

bool HsrEngine::prepared() const noexcept { return impl_->prepared; }

const Terrain* HsrEngine::terrain() const noexcept {
  return impl_->prepared ? impl_->ctx.terrain : nullptr;
}

HsrResult HsrEngine::solve(const HsrOptions& opt) {
  Impl& im = *impl_;
  im.require_prepared("solve");
  const par::ScopedConfig cfg(opt.threads, opt.backend);
  struct Lease {  // exception-safe return to the pool
    Impl& im;
    detail::Workspace* ws{im.acquire_ws()};
    ~Lease() { im.release_ws(ws); }
  } lease{im};
  detail::Workspace& ws = *lease.ws;

  const Stopwatch total;
  HsrStats stats;
  stats.order_s = im.order_s;
  stats.n_edges = im.ctx.terrain->edge_count();
  stats.n_slivers = im.ctx.n_slivers;
  stats.depth_constraints = im.ctx.order.constraints;

  ws.arena.reset();  // recycle every block from the previous solve
  // A solve that runs entirely on this thread counts from this thread's
  // counters alone, which stay exact while other threads solve; any other
  // solve diffs the global snapshot.
  const bool local = par::runs_inline();
  const Counters before = local ? work::local_snapshot() : work::snapshot();

  // Resolution-bounded solve: one predicate instance, shared read-only by
  // every thread of this solve (BoundedPrune validates the budget).
  std::optional<BoundedPrune> bounded;
  if (opt.pixel_budget) bounded.emplace(*opt.pixel_budget);
  const BoundedPrune* prune = bounded ? &*bounded : nullptr;

  VisibilityMap map{0};
  switch (opt.algorithm) {
    case Algorithm::Reference: map = detail::run_reference(im.ctx, ws, stats, prune); break;
    case Algorithm::Sequential: map = detail::run_sequential(im.ctx, ws, stats, prune); break;
    case Algorithm::Parallel:
      map = detail::run_parallel(im.ctx, ws, stats, opt.collect_layer_stats, opt.phase2_oracle,
                                 prune);
      break;
  }

  Counters delta = local ? work::local_snapshot() : work::snapshot();
  delta -= before;
  stats.work = im.prepare_work;
  stats.work += delta;
  stats.k_pieces = map.k_pieces();
  stats.k_crossings = map.k_crossings();
  stats.total_s = im.order_s + total.seconds();
  return HsrResult{std::move(map), std::move(stats)};
}

std::vector<HsrResult> HsrEngine::solve_batch(std::span<const HsrOptions> opts) {
  impl_->require_prepared("solve_batch");
  std::vector<std::optional<HsrResult>> tmp(opts.size());
  par::fan_items(opts.size(), [&](std::size_t i) {
    HsrOptions item = opts[i];
    item.threads = 1;  // each item solves on its worker
    tmp[i] = solve(item);
  });

  std::vector<HsrResult> out;
  out.reserve(opts.size());
  for (auto& r : tmp) out.push_back(std::move(*r));
  return out;
}

void HsrEngine::recycle(HsrResult&& r) {
  // The next lease returns this workspace first (LIFO free list).
  Impl& im = *impl_;
  detail::Workspace* ws = im.acquire_ws();
  ws->map_storage = std::move(r.map).release();
  im.release_ws(ws);
}

u64 HsrEngine::arena_nodes() const noexcept {
  return impl_->sum_ws([](const detail::Workspace& ws) { return ws.arena.node_count(); });
}

u64 HsrEngine::arena_blocks() const noexcept {
  return impl_->sum_ws([](const detail::Workspace& ws) { return ws.arena.allocated(); });
}

u64 HsrEngine::arena_footprint_bytes() const noexcept {
  return impl_->sum_ws([](const detail::Workspace& ws) { return ws.arena.footprint_bytes(); });
}

double HsrEngine::prepare_seconds() const noexcept { return impl_->order_s; }

}  // namespace thsr

#include "shard/sharded_engine.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "parallel/backend.hpp"
#include "support/stopwatch.hpp"

namespace thsr::shard {

struct ShardedEngine::Impl {
  ShardPlan plan;
  std::vector<std::unique_ptr<HsrEngine>> engines;  ///< null for empty slabs
  u64 n_slivers{0};
  double prepare_s{0};
  bool prepared{false};

  void require_prepared(const char* what) const {
    if (!prepared) {
      throw std::logic_error(std::string("ShardedEngine::") + what + " before prepare()");
    }
  }
};

ShardedEngine::ShardedEngine() : impl_(std::make_unique<Impl>()) {}
ShardedEngine::~ShardedEngine() = default;
ShardedEngine::ShardedEngine(ShardedEngine&&) noexcept = default;
ShardedEngine& ShardedEngine::operator=(ShardedEngine&&) noexcept = default;

void ShardedEngine::prepare(const Terrain& t, u32 slabs) {
  Impl& im = *impl_;
  // Not prepared until every slab engine is: a throw mid-way (bad_alloc in
  // a per-slab prepare) must not leave a half-built engine set behind a
  // stale prepared flag — null engines would read as legitimately empty
  // slabs and solve() would return a silently truncated map.
  im.prepared = false;
  const Stopwatch clock;
  im.plan = decompose(t, slabs);
  im.engines.clear();
  im.engines.resize(slabs);
  // Each prepare() runs inline on its worker and counts on that thread.
  par::fan_items(slabs, [&](std::size_t s) {
    if (im.plan.slabs[s].terrain.edge_count() == 0) return;  // empty slab: nothing to solve
    im.engines[s] = std::make_unique<HsrEngine>();
    im.engines[s]->prepare(im.plan.slabs[s].terrain);
  });
  im.n_slivers = 0;
  for (u32 e = 0; e < t.edge_count(); ++e) im.n_slivers += t.is_sliver(e);
  im.prepare_s = clock.seconds();
  im.prepared = true;
}

bool ShardedEngine::prepared() const noexcept { return impl_->prepared; }

u32 ShardedEngine::slab_count() const noexcept {
  return static_cast<u32>(impl_->plan.slabs.size());
}

const ShardPlan& ShardedEngine::plan() const {
  impl_->require_prepared("plan");
  return impl_->plan;
}

std::vector<std::optional<HsrResult>> ShardedEngine::solve_slabs(const HsrOptions& opt) {
  Impl& im = *impl_;
  im.require_prepared("solve_slabs");
  const par::ScopedConfig cfg(opt.threads, opt.backend);
  HsrOptions slab_opt = opt;
  slab_opt.threads = 1;  // each slab solves on its worker

  const std::size_t S = im.engines.size();
  std::vector<std::optional<HsrResult>> per(S);
  par::fan_items(S, [&](std::size_t s) {
    if (im.engines[s]) per[s] = im.engines[s]->solve(slab_opt);
  });
  return per;
}

HsrResult ShardedEngine::solve(const HsrOptions& opt) {
  Impl& im = *impl_;
  im.require_prepared("solve");

  const Stopwatch clock;
  std::vector<std::optional<HsrResult>> per = solve_slabs(opt);
  const std::size_t S = per.size();

  std::vector<const VisibilityMap*> maps(S, nullptr);
  for (std::size_t s = 0; s < S; ++s) {
    if (per[s]) maps[s] = &per[s]->map;
  }

  HsrResult out{stitch(im.plan, maps), HsrStats{}};
  HsrStats& st = out.stats;
  for (const auto& r : per) {
    if (!r) continue;
    st.work += r->stats.work;  // includes that slab's prepare work
    st.order_s += r->stats.order_s;
    st.phase1_s += r->stats.phase1_s;
    st.phase2_s += r->stats.phase2_s;
    st.depth_constraints += r->stats.depth_constraints;
    st.phase1_pieces += r->stats.phase1_pieces;
    st.treap_nodes += r->stats.treap_nodes;
  }
  st.n_edges = im.plan.source->edge_count();
  st.n_slivers = im.n_slivers;
  st.k_pieces = out.map.k_pieces();
  st.k_crossings = out.map.k_crossings();
  st.total_s = st.order_s + clock.seconds();
  return out;
}

double ShardedEngine::prepare_seconds() const noexcept { return impl_->prepare_s; }

}  // namespace thsr::shard

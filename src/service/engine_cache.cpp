#include "service/engine_cache.hpp"

#include <exception>
#include <list>
#include <stdexcept>
#include <unordered_map>

namespace thsr::service {

namespace {

struct Key {
  u64 id;
  Viewpoint vp;  // canonical
  friend bool operator==(const Key&, const Key&) = default;
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    u64 h = k.id;
    for (const i64 v : {k.vp.dir_x, k.vp.dir_y, k.vp.elev_num, k.vp.elev_den}) {
      h ^= static_cast<u64>(v) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

/// The one place PreparedView instances are assembled: resolves the reuse
/// ladder (canonical frame: no transform copy; ground-preserving with a
/// resident base: depth-order transfer; otherwise full prepare).
struct PreparedViewBuilder {
  static std::shared_ptr<PreparedView> build(u64 id, const Viewpoint& cvp,
                                             std::shared_ptr<const Terrain> source,
                                             const PreparedView* base) {
    std::shared_ptr<PreparedView> v(new PreparedView());
    v->terrain_id_ = id;
    v->viewpoint_ = cvp;
    v->source_ = std::move(source);
    if (is_canonical_frame(cvp)) {
      v->view_terrain_ = v->source_.get();
      v->engine_.prepare(*v->view_terrain_);
    } else {
      v->transformed_ = std::make_unique<Terrain>(transform_terrain(*v->source_, cvp));
      v->view_terrain_ = v->transformed_.get();
      if (base != nullptr && ground_preserving(cvp)) {
        v->engine_.prepare_with_order_of(*v->view_terrain_, base->engine_);
        v->reused_base_order_ = true;
      } else {
        v->engine_.prepare(*v->view_terrain_);
      }
    }
    return v;
  }
};

u64 PreparedView::footprint_bytes() const noexcept {
  const Terrain& t = *view_terrain_;
  u64 bytes = engine_.arena_footprint_bytes();
  // Context tables scale with the edge count: the image-plane segment
  // table, the sliver flags, and the depth order's two u32 vectors.
  bytes += t.edge_count() * (sizeof(Seg2) + 1 + 2 * sizeof(u32));
  if (transformed_) bytes += t.footprint_bytes();
  return bytes;
}

struct EngineCache::Impl {
  struct Slot {
    Key key;
    std::mutex build_mu;                   ///< serializes same-key builds
    std::shared_ptr<PreparedView> view;    ///< guarded by build_mu
    std::exception_ptr error;              ///< guarded by build_mu
    // The fields below are guarded by the cache-wide mutex `mu`.
    std::shared_ptr<PreparedView> published;  ///< set once built (base-reuse lookups)
    bool resident{false};
    u64 accounted{0};
    std::list<std::shared_ptr<Slot>>::iterator lru_it;
  };

  Options opt;
  mutable std::mutex mu;  ///< guards terrains, map, lru, stats, Slot residency fields
  std::unordered_map<u64, std::shared_ptr<const Terrain>> terrains;
  std::unordered_map<Key, std::shared_ptr<Slot>, KeyHash> map;
  std::list<std::shared_ptr<Slot>> lru;  ///< front = most recently used
  Stats stats;

  /// Prepare the view for `key` (runs on the caller's thread, outside `mu`
  /// but under the slot's build mutex). Peeks — briefly under `mu` — for a
  /// resident canonical-frame entry to transfer the depth order from.
  std::shared_ptr<PreparedView> build_view(const Key& key, std::shared_ptr<const Terrain> source) {
    const PreparedView* base = nullptr;
    std::shared_ptr<PreparedView> base_hold;  // pins the base across the build
    if (!is_canonical_frame(key.vp) && ground_preserving(key.vp)) {
      const std::lock_guard<std::mutex> lk(mu);
      const auto it = map.find(Key{key.id, Viewpoint{}});
      if (it != map.end() && it->second->published) {
        base_hold = it->second->published;
        base = base_hold.get();
      }
    }
    return PreparedViewBuilder::build(key.id, key.vp, std::move(source), base);
  }

  /// Drop least-recently-used entries until the budget holds. `keep` (the
  /// entry being acquired) is never evicted. Caller holds `mu`.
  void evict_to_budget(const Slot* keep) {
    while (stats.resident_bytes > opt.byte_budget && lru.size() > 1) {
      const std::shared_ptr<Slot>& victim = lru.back();
      if (victim.get() == keep) break;  // everything older is already gone
      victim->resident = false;
      stats.resident_bytes -= victim->accounted;
      ++stats.evictions;
      map.erase(victim->key);
      lru.pop_back();  // a leased view stays alive through its shared_ptr
    }
  }
};

EngineCache::EngineCache() : EngineCache(Options{}) {}
EngineCache::EngineCache(const Options& opt) : impl_(std::make_unique<Impl>()) {
  impl_->opt = opt;
}
EngineCache::~EngineCache() = default;

void EngineCache::add_terrain(u64 id, std::shared_ptr<const Terrain> t) {
  if (t == nullptr) throw std::invalid_argument("EngineCache::add_terrain: null terrain");
  const std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->terrains[id] = std::move(t);
}

bool EngineCache::has_terrain(u64 id) const {
  const std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->terrains.count(id) != 0;
}

std::shared_ptr<PreparedView> EngineCache::acquire(u64 terrain_id, const Viewpoint& vp,
                                                   bool* was_hit) {
  Impl& im = *impl_;
  const Key key{terrain_id, canonical(vp)};  // throws on degenerate viewpoints

  std::shared_ptr<const Terrain> source;
  std::shared_ptr<Impl::Slot> slot;
  {
    const std::lock_guard<std::mutex> lk(im.mu);
    const auto tit = im.terrains.find(terrain_id);
    if (tit == im.terrains.end()) {
      throw std::invalid_argument("EngineCache: unregistered terrain id");
    }
    source = tit->second;
    const auto sit = im.map.find(key);
    if (sit != im.map.end()) {
      slot = sit->second;
      im.lru.splice(im.lru.begin(), im.lru, slot->lru_it);  // touch
      slot->lru_it = im.lru.begin();
    } else {
      slot = std::make_shared<Impl::Slot>();
      slot->key = key;
      slot->resident = true;
      im.map.emplace(key, slot);
      im.lru.push_front(slot);
      slot->lru_it = im.lru.begin();
    }
  }

  bool built_here = false;
  std::shared_ptr<PreparedView> view;
  {
    const std::lock_guard<std::mutex> build_lk(slot->build_mu);
    if (slot->error) std::rethrow_exception(slot->error);
    if (!slot->view) {
      try {
        view = im.build_view(key, source);
      } catch (...) {
        slot->error = std::current_exception();
        const std::lock_guard<std::mutex> lk(im.mu);
        if (slot->resident) {  // forget the failed key so later acquires retry
          slot->resident = false;
          im.map.erase(slot->key);
          im.lru.erase(slot->lru_it);
        }
        throw;
      }
      slot->view = view;
      built_here = true;
    } else {
      view = slot->view;
    }
  }

  if (was_hit != nullptr) *was_hit = !built_here;
  {
    const std::lock_guard<std::mutex> lk(im.mu);
    built_here ? ++im.stats.misses : ++im.stats.hits;
    if (built_here && view->reused_base_order()) ++im.stats.order_transfers;
    if (slot->resident) {
      slot->published = view;
      // Re-sample the footprint: warm solves grow the retained arena.
      const u64 now = view->footprint_bytes();
      im.stats.resident_bytes += now - slot->accounted;
      slot->accounted = now;
      im.evict_to_budget(slot.get());
    }
  }
  return view;
}

EngineCache::Stats EngineCache::stats() const {
  const std::lock_guard<std::mutex> lk(impl_->mu);
  Stats s = impl_->stats;
  s.resident_entries = impl_->lru.size();
  return s;
}

std::vector<std::pair<u64, Viewpoint>> EngineCache::resident() const {
  const std::lock_guard<std::mutex> lk(impl_->mu);
  std::vector<std::pair<u64, Viewpoint>> out;
  out.reserve(impl_->lru.size());
  for (const auto& slot : impl_->lru) out.emplace_back(slot->key.id, slot->key.vp);
  return out;
}

}  // namespace thsr::service

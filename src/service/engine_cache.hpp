#pragma once
/// \file engine_cache.hpp
/// Byte-budgeted LRU cache of prepared per-viewpoint engines — the memory
/// authority of the serving layer (DESIGN.md section 1.10).
///
/// A sustained query stream hits few terrains from many viewpoints, and
/// preparing a viewpoint (transform + depth order + first-solve arena
/// sizing) costs orders of magnitude more than a warm solve — so the cache
/// keys prepared `HsrEngine`s by (terrain id, canonical viewpoint) and
/// bounds their resident bytes: every entry's footprint (transformed
/// terrain + context tables + `HsrEngine::arena_footprint_bytes()`) is
/// accounted, and when the total exceeds the budget the least-recently
/// acquired entries are dropped. An evicted entry that is still leased
/// stays alive until its last lease ends (shared ownership); it just stops
/// being findable — so eviction never interrupts an in-flight solve.
///
/// Reuse ladder per miss (service/viewpoint.hpp): the canonical frame
/// prepares on the source terrain directly (no transform copy);
/// ground-preserving viewpoints transfer the depth order from the resident
/// canonical-frame entry via `HsrEngine::prepare_with_order_of`; everything
/// else runs a full `prepare`. All three produce bit-identical
/// solves (maps and counters) — the ladder is a wall-clock optimization
/// only, which is what lets it stay opportunistic (tests/test_service.cpp).
///
/// Thread-safe: lookups, builds, and evictions may run concurrently from
/// any number of threads (the query-server workers). Builds of distinct
/// keys proceed in parallel; concurrent requests for the same key build
/// once and share. Returned leases are safe for concurrent solves, as
/// every prepared HsrEngine is.

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "service/viewpoint.hpp"

namespace thsr::service {

/// A prepared (terrain, viewpoint) pair leased out of the cache. Immutable
/// after construction except for the engine's internal solve state;
/// concurrent engine().solve() calls are safe (see file comment).
class PreparedView {
 public:
  /// The terrain this engine was prepared on: the source terrain for the
  /// canonical frame, the transformed image otherwise.
  const Terrain& view_terrain() const noexcept { return *view_terrain_; }
  const Viewpoint& viewpoint() const noexcept { return viewpoint_; }  ///< canonical form
  u64 terrain_id() const noexcept { return terrain_id_; }             ///< owning terrain id

  /// The prepared engine; solve() is safe from any thread and is
  /// bit-identical to a direct solve of the pre-transformed terrain.
  HsrEngine& engine() noexcept { return engine_; }

  /// True when preparation transferred the depth order from the resident
  /// canonical-frame entry instead of recomputing it (introspection; the
  /// result is bit-identical either way).
  bool reused_base_order() const noexcept { return reused_base_order_; }

  /// Resident cost of this entry right now: owned terrain bytes (zero for
  /// the canonical frame, which borrows the source) + context tables +
  /// the engine's retained arena footprint. Grows as solves warm the
  /// arena; the cache re-samples it on every acquire.
  u64 footprint_bytes() const noexcept;

 private:
  friend struct PreparedViewBuilder;  ///< cpp-local construction (engine_cache.cpp)
  PreparedView() = default;
  u64 terrain_id_{0};
  Viewpoint viewpoint_{};
  std::shared_ptr<const Terrain> source_;  ///< pins the registered terrain
  std::unique_ptr<Terrain> transformed_;   ///< owned image (null in canonical frame)
  const Terrain* view_terrain_{nullptr};
  HsrEngine engine_;
  bool reused_base_order_{false};
};

class EngineCache {
 public:
  struct Options {
    /// Resident-byte budget across all entries. Acquiring beyond it evicts
    /// least-recently used entries; the entry being acquired is never
    /// evicted, so a single view larger than the whole budget still serves
    /// (as a cache of one).
    u64 byte_budget{u64{256} << 20};
  };

  struct Stats {
    u64 hits{0};              ///< acquires answered by a resident entry
    u64 misses{0};            ///< acquires that prepared a new entry
    u64 evictions{0};         ///< entries dropped to respect the budget
    u64 order_transfers{0};   ///< misses served via prepare_with_order_of
    u64 resident_bytes{0};    ///< accounted footprint of resident entries
    u64 resident_entries{0};  ///< currently resident (findable) entries
  };

  EngineCache();  ///< default Options
  explicit EngineCache(const Options& opt);
  ~EngineCache();
  EngineCache(const EngineCache&) = delete;
  EngineCache& operator=(const EngineCache&) = delete;

  /// Register `t` under `id` (replacing any previous registration). The
  /// shared_ptr keeps the terrain alive for every entry derived from it.
  /// \throws std::invalid_argument when `t` is null.
  void add_terrain(u64 id, std::shared_ptr<const Terrain> t);
  bool has_terrain(u64 id) const;

  /// A lease on the prepared engine for (terrain, viewpoint): resident =>
  /// O(1) plus a footprint re-sample; miss => transform + prepare on the
  /// calling thread (same-key callers wait and share, other
  /// keys proceed concurrently). The lease pins the entry across eviction.
  /// Throws std::invalid_argument on an unregistered id, a degenerate
  /// viewpoint, or one whose transform exceeds the kMaxCoord width budget.
  /// `was_hit` (optional) reports whether this acquire found the entry
  /// resident (race-free, unlike diffing stats() around the call).
  std::shared_ptr<PreparedView> acquire(u64 terrain_id, const Viewpoint& vp,
                                        bool* was_hit = nullptr);

  Stats stats() const;

  /// Resident (terrain id, canonical viewpoint) keys, most recently used
  /// first (tests/introspection).
  std::vector<std::pair<u64, Viewpoint>> resident() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace thsr::service

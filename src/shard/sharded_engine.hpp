#pragma once
/// \file sharded_engine.hpp
/// Data-decomposed hidden-surface removal: one prepared HsrEngine per
/// y-slab, solves fanned over the fork-join backend, results stitched back
/// into the source terrain's visibility map (DESIGN.md section 1.7).
///
///   shard::ShardedEngine engine;
///   engine.prepare(terrain, /*slabs=*/8);   // decompose + prepare each slab
///   HsrResult r = engine.solve();           // each slab: the default algorithm
///
/// The stitched map is piece-for-piece identical to a monolithic
/// HsrEngine solve of the same terrain, after both are coalesced at the
/// slab cut lines (shard::coalesce_at_cuts; tests/test_shard.cpp asserts
/// this across algorithms, phase-2 oracles, and backends). Sharding
/// changes *where* work happens — each slab's depth order, PCT, and
/// profiles are local, so per-slab working sets shrink with S — at the
/// price of replicating edges that cross slab lines; the plan's
/// duplication_factor() bounds that overhead, and bench_ci gates the
/// sharded counted work against it.
///
/// Stats of the stitched result: `work`, `treap_nodes`, `phase1_pieces`,
/// `depth_constraints`, and the phase timings are sums over the slabs
/// (each slab's solve folds in its own prepare work, mirroring the
/// monolithic convention); `k_*` are measured on the stitched map;
/// `layers` stays empty — per-slab layer schedules do not align; inspect
/// single-slab solves for that detail. An engine instance is not
/// thread-safe; prepare() and solve() parallelize internally.

#include <memory>

#include "core/hsr.hpp"
#include "shard/shard.hpp"

namespace thsr::shard {

class ShardedEngine {
 public:
  ShardedEngine();
  ~ShardedEngine();
  ShardedEngine(ShardedEngine&&) noexcept;
  ShardedEngine& operator=(ShardedEngine&&) noexcept;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Decompose `t` into `slabs` y-slabs and prepare one session engine per
  /// non-empty slab, fanned over the calling thread's backend like the
  /// solves. Fully evicts any previously prepared terrain. The terrain
  /// must outlive every solve.
  /// \throws std::invalid_argument when slabs == 0 (the engine is left
  ///         unprepared).
  void prepare(const Terrain& t, u32 slabs);

  bool prepared() const noexcept;
  u32 slab_count() const noexcept;

  /// The decomposition (cut ordinates, per-slab sub-terrains, duplication
  /// accounting).
  /// \throws std::logic_error before prepare().
  const ShardPlan& plan() const;

  /// Solve every slab with `opt` — fanned over the fork-join backend, one
  /// task per slab, each solved at threads = 1 (solve_batch-style
  /// dispatch) — and stitch the per-slab maps. `opt.threads`/`opt.backend`
  /// configure the fan-out exactly as they would a monolithic solve;
  /// `opt.collect_layer_stats` is accepted but the stitched result keeps
  /// `layers` empty (see file comment).
  /// \throws std::logic_error before prepare().
  HsrResult solve(const HsrOptions& opt = {});

  /// Solve every slab with `opt` (the same fan-out as solve()) and return
  /// the raw per-slab results *without* stitching: entry i holds slab i's
  /// map indexed by slab-local edge ids (translate via
  /// plan().slabs[i].global_edge / global_tri), or nullopt for an empty
  /// slab. This is the raster path's entry point: per-slab maps rasterize
  /// independently into disjoint image-column bands, so no stitch is ever
  /// materialized (raster/raster.hpp, rasterize_sharded).
  /// \throws std::logic_error before prepare().
  std::vector<std::optional<HsrResult>> solve_slabs(const HsrOptions& opt = {});

  /// Wall-clock seconds the last prepare() took: decomposition plus every
  /// per-slab engine preparation (amortized across solves).
  double prepare_seconds() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace thsr::shard

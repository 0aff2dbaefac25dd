#pragma once
/// \file engine.hpp
/// Session-oriented hidden-surface-removal engine.
///
/// `hidden_surface_removal()` answers one question about one terrain and
/// throws everything away. A production workload asks many questions about
/// the *same* terrain — different algorithms, oracles, backends, repeated
/// queries under load — and the pipeline has a natural prefix (segment
/// extraction, sliver classification, depth order, PCT skeleton) that is
/// independent of which algorithm runs. HsrEngine splits the two:
///
///   HsrEngine engine;
///   engine.prepare(terrain);              // preprocess once
///   HsrResult a = engine.solve({.algorithm = Algorithm::Parallel});
///   HsrResult b = engine.solve({.algorithm = Algorithm::Sequential});
///   auto batch  = engine.solve_batch(options);   // fan out over the backend
///
/// Beyond caching the preprocessing, the engine owns the working-set
/// memory: the persistent-node arena is rewound (not freed) between
/// solves, and phase scratch plus output-piece buffers are recycled. A
/// warm solve whose predecessor was at least as large allocates zero new
/// arena blocks once the retained footprint covers the backend's
/// schedule — deterministically so in serial runs (threads=1), where
/// allocations always land on the same thread (DESIGN.md section 1.2 for
/// the full lifecycle).
///
/// Determinism contract: a warm solve is bit-identical — visibility map
/// *and* work counters — to a one-shot `hidden_surface_removal()` with the
/// same options (tests/test_engine.cpp). Reuse changes wall clock only.
///
/// Threading: preparation and solve() are single-caller operations — drive
/// them from one thread at a time (solve_batch parallelizes internally).
/// solve_scoped() is the exception: once a prepared engine's PCT is built
/// (ensure_parallel_ready(), or any completed solve), concurrent
/// solve_scoped calls on the *same* engine are safe — the context is read
/// read-only and every call leases its own workspace, which is exactly how
/// solve_batch and the serving layer (src/service/) fan solves out. The
/// prepared terrain must outlive every solve against it.

#include <memory>
#include <span>
#include <vector>

#include "core/hsr.hpp"

namespace thsr {

class HsrEngine {
 public:
  HsrEngine();
  ~HsrEngine();
  HsrEngine(HsrEngine&&) noexcept;
  HsrEngine& operator=(HsrEngine&&) noexcept;
  HsrEngine(const HsrEngine&) = delete;
  HsrEngine& operator=(const HsrEngine&) = delete;

  /// Build and cache the solve-independent context for `t`: segments,
  /// sliver flags, and the depth order. The PCT skeleton is cached too but
  /// built lazily inside the first Parallel solve (and timed there), so
  /// sequential/reference-only sessions never pay for it. Fully evicts any
  /// previously prepared terrain; retained scratch memory is recycled, not
  /// freed. Preparation runs inline on the calling thread (a
  /// par::SerialRegion) and its work is counted from that thread's
  /// counters alone, so it is safe while other threads solve other engines
  /// (the serving layer's cache-miss path, src/service/engine_cache.hpp).
  void prepare(const Terrain& t);

  /// Prepare for `t` by *transferring* the solve-independent context of
  /// `base` where it is still valid: when `t` has the same triangles and
  /// the identical ground projection as base's terrain (e.g. the image of
  /// a ground-preserving viewpoint shear, service/viewpoint.hpp), the
  /// sliver classification and the depth order — the expensive part of
  /// preparation — carry over verbatim, and only the image-plane segment
  /// table is rebuilt from t's heights. Counter-exact: the transferred
  /// prepare work equals what recomputation would have counted, because
  /// depth ordering reads only ground coordinates (asserted in
  /// tests/test_service.cpp). Runs on the calling thread like prepare().
  /// Throws std::invalid_argument when `t` and base's terrain differ in
  /// topology or ground projection.
  void prepare_with_order_of(const Terrain& t, const HsrEngine& base);

  /// Build the lazily constructed PCT skeleton now (idempotent; a pure
  /// uncounted function of the edge count). Call once before sharing this
  /// engine across concurrently running solve_scoped callers — the lazy
  /// in-solve build is unsynchronized by design (solve_batch pre-builds
  /// internally; external fan-outs like the query server do it here).
  void ensure_parallel_ready();

  bool prepared() const noexcept;
  const Terrain* terrain() const noexcept;

  /// Run one algorithm against the prepared context. Requires prepare().
  /// `opt.threads` / `opt.backend` apply for the duration of the solve and
  /// are restored afterwards (exception-safe). The solve may run on pool
  /// workers, so its work is a delta of every thread's counters: exact
  /// unless other threads count concurrently (use solve_scoped() then).
  HsrResult solve(const HsrOptions& opt = {});

  /// Solve every option set against the prepared context, fanning the
  /// independent solves out over the current fork-join backend (each item
  /// runs serially on its worker). Results — maps and work counters — are
  /// bit-identical to a sequential loop of solve() calls. Per-item
  /// `threads` / `backend` overrides are not representable in a shared
  /// parallel region and must be left at their defaults.
  std::vector<HsrResult> solve_batch(std::span<const HsrOptions> opts);

  /// The per-item primitive behind solve_batch: run one solve entirely on
  /// the calling thread (a par::SerialRegion), inside whatever parallel
  /// region — and under whatever executor configuration — the caller has
  /// already established. Work is attributed via the calling thread's
  /// counters, so concurrent solve_scoped calls on *different* engines
  /// report exact per-call Counters. This is how a multi-engine driver
  /// (shard::ShardedEngine) fans one solve per engine over par::fan_items.
  /// `opt.threads` / `opt.backend` must be unset. The result is
  /// bit-identical to solve(opt).
  HsrResult solve_scoped(const HsrOptions& opt = {});

  /// Donate a retired result's piece buffers back to the engine so the
  /// next solve reuses their capacity.
  void recycle(HsrResult&& r);

  /// Persistent nodes ever allocated by this engine's arena (across
  /// solves; the persistence-cost metric).
  u64 arena_nodes() const noexcept;

  /// Arena blocks ever heap-allocated. Constant across warm solves that
  /// fit in the retained footprint — the allocation-churn gauge used by
  /// tests/test_engine.cpp and bench/micro_engine_reuse.
  u64 arena_blocks() const noexcept;

  /// Bytes of persistent-node storage this engine retains across warm
  /// solves (solve() workspace plus the batch workspace pool): the
  /// per-engine resident footprint the timed bench lane reports — what
  /// bounds how many warm engines one host can cache.
  u64 arena_footprint_bytes() const noexcept;

  /// Wall-clock seconds the last prepare() took (amortized across solves).
  double prepare_seconds() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace thsr

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
///   HsrResult a = engine.solve();         // the default: Sequential
///   HsrResult b = engine.solve({.algorithm = Algorithm::Parallel, .threads = 4});
///   auto batch  = engine.solve_batch(options);   // fan out over the backend
///
/// Beyond caching the preprocessing, the engine owns the working-set
/// memory: every solve leases a workspace from the engine's pool, whose
/// treap-node arena is rewound (not freed) between solves and whose
/// phase scratch plus output-piece buffers are recycled. A lone caller
/// always gets the same workspace back, so a warm solve whose predecessor
/// was at least as large allocates zero new arena blocks once the retained
/// footprint covers the backend's schedule — deterministically so at
/// threads=1, where allocations always land on the same thread (DESIGN.md
/// section 1.2 for the full lifecycle).
///
/// Determinism contract: a warm solve is bit-identical — visibility map
/// *and* work counters — to a one-shot `hidden_surface_removal()` with the
/// same options (tests/test_engine.cpp). Reuse changes wall clock only.
///
/// Threading: prepare() and prepare_with_order_of() are single-caller —
/// no solve of this engine may run meanwhile. Once prepared, solve() and
/// solve_batch() may be called from any number of threads at once: the
/// context is read-only and every solve leases its own workspace, which is
/// how solve_batch and the serving layer (src/service/) fan solves out.
/// The prepared terrain must outlive every solve against it.

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
  /// sliver flags, the depth order, and the PCT skeleton (a pure,
  /// uncounted function of the edge count). Fully evicts any previously
  /// prepared terrain; retained scratch memory is recycled, not freed.
  /// Preparation runs inline on the calling thread and its work is counted
  /// from that thread's counters alone, so it is safe while other threads
  /// solve other engines (the serving layer's cache-miss path,
  /// src/service/engine_cache.hpp).
  void prepare(const Terrain& t);

  /// Prepare for `t` by *transferring* the solve-independent context of
  /// `base` where it is still valid: when `t` has the same triangles and
  /// the identical ground projection as base's terrain (e.g. the image of
  /// a ground-preserving viewpoint shear, service/viewpoint.hpp), the
  /// sliver classification, the depth order — the expensive part of
  /// preparation — and the PCT carry over verbatim, and only the
  /// image-plane segment table is rebuilt from t's heights. Counter-exact:
  /// the transferred prepare work equals what recomputation would have
  /// counted, because depth ordering reads only ground coordinates
  /// (asserted in tests/test_service.cpp). Runs on the calling thread like
  /// prepare().
  /// \throws std::invalid_argument when `t` and base's terrain differ in
  ///         topology or ground projection; std::logic_error when `base`
  ///         is not prepared.
  void prepare_with_order_of(const Terrain& t, const HsrEngine& base);

  bool prepared() const noexcept;
  const Terrain* terrain() const noexcept;

  /// Run one algorithm against the prepared context. Requires prepare().
  /// `opt.threads` / `opt.backend` apply to the calling thread for the
  /// duration of the solve. A solve that runs entirely on this thread
  /// (threads = 1, or the Serial backend) counts from this thread's
  /// counters alone, so its work counters stay exact while other threads
  /// solve; any other solve diffs every thread's counters, exact unless
  /// other threads count concurrently.
  /// \throws std::logic_error before prepare(); std::invalid_argument when
  ///         `opt.pixel_budget` is malformed (see PixelBudget).
  HsrResult solve(const HsrOptions& opt = {});

  /// Solve every option set against the prepared context, fanning the
  /// independent solves out over the calling thread's backend. Each item
  /// solves at threads = 1 on its worker (its own `threads` is ignored).
  /// Results — maps and work counters — are bit-identical to a sequential
  /// loop of solve() calls.
  /// \throws std::logic_error before prepare(); otherwise what solve()
  ///         throws (the lowest failing item's exception).
  std::vector<HsrResult> solve_batch(std::span<const HsrOptions> opts);

  /// Donate a retired result's piece buffers back to the engine so the
  /// next solve reuses their capacity.
  void recycle(HsrResult&& r);

  /// Persistent nodes ever allocated by this engine's arenas (across
  /// solves; the persistence-cost metric).
  u64 arena_nodes() const noexcept;

  /// Arena blocks ever heap-allocated. Constant across warm solves that
  /// fit in the retained footprint — the allocation-churn gauge used by
  /// tests/test_engine.cpp and bench/micro_engine_reuse.
  u64 arena_blocks() const noexcept;

  /// Bytes of persistent-node storage this engine retains across warm
  /// solves, over every pooled workspace: the per-engine resident
  /// footprint the timed bench lane reports — what bounds how many warm
  /// engines one host can cache.
  u64 arena_footprint_bytes() const noexcept;

  /// Wall-clock seconds the last prepare() took (amortized across solves).
  double prepare_seconds() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace thsr

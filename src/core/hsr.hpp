#pragma once
/// \file hsr.hpp
/// Public entry point: object-space hidden-surface removal for polyhedral
/// terrains, reproducing Gupta & Sen (IPPS 1998).
///
/// Three interchangeable algorithms compute the *identical* visibility map
/// (exact arithmetic; the equivalence is asserted by the test suite):
///
///  * Reference  — incremental flat-envelope scan; simple, independent code
///                 path used as the correctness oracle. O((n+k)·|profile|)
///                 worst case: not output-sensitive.
///  * Sequential — Reif–Sen-style edge-at-a-time processing over the
///                 treap profile with polylog queries per edge:
///                 O((n+k)·polylog n), the paper's sequential baseline [19].
///                 It keeps only its live profile (single-version splices,
///                 persist/ptreap.hpp). **The default.**
///  * Parallel   — the paper's algorithm: depth order via the separator
///                 substrate, PCT phase 1 (intermediate envelopes), PCT
///                 phase 2 (systolic prefix merging over persistent profile
///                 versions). Work O((n+k)·polylog n), span polylog; realized
///                 on the native work-stealing fork-join pool, or serially
///                 (runtime-selectable backend, DESIGN.md section 1.1).
///
/// Sequential is the default because it is the fastest on every product
/// path: on a g96 viewshed map, Parallel at four threads counts ~4× the
/// predicates of Sequential on one core and takes ~2× its time, and a
/// served query solves ~5× faster under Sequential (DESIGN.md section 2).
/// Select Parallel to run the paper's algorithm; every result is the same
/// map.
///
/// Example:
/// \code
///   thsr::GenOptions gen{.family = thsr::Family::Fbm, .grid = 64};
///   thsr::Terrain t = thsr::make_terrain(gen);
///   thsr::HsrResult r = thsr::hidden_surface_removal(t);  // Sequential
///   std::cout << r.stats.k_pieces << " visible pieces\n";
///   // The paper's algorithm on four threads: the same map.
///   thsr::HsrResult p = thsr::hidden_surface_removal(
///       t, {.algorithm = thsr::Algorithm::Parallel, .threads = 4});
/// \endcode
///
/// `hidden_surface_removal()` is a one-shot shim over the session engine;
/// when solving the same terrain repeatedly, prepare a `thsr::HsrEngine`
/// (core/engine.hpp) once and reuse it — warm solves skip preprocessing
/// and recycle all working memory, with bit-identical results.

#include <optional>

#include "core/bounded.hpp"
#include "core/visibility.hpp"
#include "parallel/backend.hpp"
#include "parallel/work_depth.hpp"
#include "terrain/terrain.hpp"

namespace thsr {

enum class Algorithm { Reference, Sequential, Parallel };

const char* algorithm_name(Algorithm a) noexcept;

/// Phase-2 intersection oracle (Parallel algorithm only).
///  * Persistent       — the paper's design: shared persistent profile
///                       versions queried by pruned descent (default).
///  * MaterializedScan — ablation: materialize the inherited profile at
///                       every PCT node and scan it linearly; identical
///                       output, cost Theta(sum over nodes of |P_v|) — what
///                       the persistence is there to avoid (bench E12).
enum class Phase2Oracle { Persistent, MaterializedScan };

struct HsrOptions {
  Algorithm algorithm{Algorithm::Sequential};  ///< the default: see the file comment
  int threads{0};                 ///< 0 = the calling thread's par::max_threads()
  bool collect_layer_stats{false};  ///< fill HsrStats::layers (Parallel only)
  Phase2Oracle phase2_oracle{Phase2Oracle::Persistent};
  /// Fork-join executor for this run; nullopt = the calling thread's
  /// par::backend() (which honors the THSR_BACKEND environment override). The backend
  /// never changes the output or the counted work, only wall clock.
  std::optional<par::Backend> backend{};
  /// Resolution-bounded solve (core/bounded.hpp): prune map structure whose
  /// closed y-extent contains no sample ordinate of this lattice. The map
  /// may differ from the exact solve inside sample-free intervals (and per
  /// algorithm), but `raster::rasterize` at the budget's window/resolution
  /// is bitwise identical to the exact pipeline and the brute-force oracle
  /// (DESIGN.md section 1.12); k_pieces/treap_nodes/envelope work drop on
  /// sub-pixel-dense scenes. For a fixed algorithm the bounded map and its
  /// counters keep the backend/thread-count determinism contract. nullopt =
  /// exact solve, bit-identical to a build without this field.
  std::optional<PixelBudget> pixel_budget{};
};

/// Per-PCT-layer instrumentation (benches table_f1 / table_f3).
struct LayerStats {
  u32 layer{0};
  u32 nodes{0};              ///< PCT nodes processed at this layer
  u64 pieces_consumed{0};    ///< sum of |Π_left(v)| walked
  u64 events{0};             ///< above/below transitions found
  u64 splices{0};            ///< persistent range replacements
  u64 treap_nodes{0};        ///< nodes allocated during this layer
  u64 profile_pieces{0};     ///< sum over nodes of |P_v| (logical version sizes);
                             ///< what naive per-node profile copies would cost
};

struct HsrStats {
  double order_s{0}, phase1_s{0}, phase2_s{0}, total_s{0};
  u64 n_edges{0}, n_slivers{0};
  u64 k_pieces{0}, k_crossings{0};
  u64 depth_constraints{0};  ///< arcs behind the depth order (DepthOrder::constraints)
  u64 phase1_pieces{0};  ///< total intermediate-envelope pieces (Σ over PCT)
  u64 treap_nodes{0};    ///< treap node constructions over the whole run; a
                         ///< Sequential solve builds each into the slot of a
                         ///< node it superseded when one is free, so this
                         ///< counts work, not the nodes it holds
  Counters work;         ///< operation counters for the run (work bound proxy)
  std::vector<LayerStats> layers;
};

struct HsrResult {
  VisibilityMap map;
  HsrStats stats;
};

/// Solve hidden-surface removal for `t` viewed from x = +infinity.
/// One-shot convenience over HsrEngine (core/engine.hpp): prepares a
/// temporary engine and runs a single solve.
/// \param t   the terrain; must outlive the call only
/// \param opt algorithm / oracle / executor selection (see HsrOptions)
/// \return the exact visibility map plus per-run statistics; identical —
///         bit for bit — for every algorithm, backend, and thread count
/// \throws std::invalid_argument when `opt.pixel_budget` is malformed (see
///         PixelBudget); std::bad_alloc. Other invalid options trip THSR_CHECK.
/// Work O((n+k)·polylog n) for the output-sensitive algorithms
/// (DESIGN.md section 2); wall clock additionally divides by p on the
/// parallel path (Theorem 3.1's /p term).
HsrResult hidden_surface_removal(const Terrain& t, const HsrOptions& opt = {});

}  // namespace thsr

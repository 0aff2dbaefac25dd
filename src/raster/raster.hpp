#pragma once
/// \file raster.hpp
/// Image-space rasterization of a solved object-space VisibilityMap: the
/// per-pixel visible-triangle **ID map**, the **depth map** (x-coordinate
/// of the visible surface point, the distance proxy for a viewer at
/// x = +infinity), and per-pixel **coverage** (fraction of supersamples
/// that hit the terrain). This is the image-space half of the hybrid
/// formulation Erickson's finite-resolution HSR argues for: the exact
/// object-space map is computed once, then scan-converted at any
/// resolution (DESIGN.md section 1.8).
///
/// **Scan conversion.** The viewer looks along -x, so a ray through image
/// point (y, z) stays in the plane y = const: each image *column* is an
/// independent 1-D problem. Along a column, the visible surface — ordered
/// by increasing z — transitions exactly at the *visible edge crossings*
/// (the points where visible pieces of the map cross the column), and the
/// open interval between two consecutive crossings shows a single
/// triangle: the one on the **near (+x) side of the interval's upper
/// crossing** (the visible surface always exits an interval's triangle
/// through the visible edge bounding it from above; below the lowest
/// crossing and above the highest lies background). Crossing ordinates
/// are exact rationals (section 5 magnitudes, re-derived for the sampling
/// lattice in DESIGN.md section 1.8), so the per-pixel decision is exact;
/// only the emitted depth value is rounded to double.
///
/// **Determinism.** Columns are fanned over the fork-join backend
/// (par::fan_items) and write disjoint output ranges with no reduction,
/// so the produced image is bit-identical across backends and thread
/// counts (tests/test_raster.cpp), matching the library-wide contract.
///
/// **Sharding.** A slab of a shard::ShardPlan contains every triangle
/// meeting its window, so a column owned by a slab sees identical
/// geometry and an identical visible set in the slab's *unstitched* map:
/// `rasterize_sharded` consumes per-slab maps directly
/// (shard::ShardedEngine::solve_slabs), each slab filling its disjoint
/// band of image columns, and the result is bit-identical to rasterizing
/// the monolithic solve — no stitch on the raster path.
///
/// **Degeneracies.** Sliver edges (zero image width) and rays grazing
/// exactly along a vertex or edge are measure-zero in the image; the
/// default window is padded to an odd extent so no sample ordinate is an
/// integer lattice value, and samples that do land on a crossing resolve
/// deterministically (the crossing's near-side triangle). Visible slivers
/// are not rasterized — a zero-width wall has no pixel of its own.

#include <optional>
#include <span>
#include <vector>

#include "core/bounded.hpp"
#include "core/visibility.hpp"
#include "parallel/backend.hpp"
#include "shard/shard.hpp"
#include "terrain/terrain.hpp"

namespace thsr::raster {

/// Background pixel value in ID maps: the ray hit no (top side of a)
/// triangle — sky, a NODATA hole, or below the bottom silhouette.
inline constexpr u32 kNoTriangle = 0xffffffffu;

/// Cap on width*supersample and height*supersample: keeps every sample
/// ordinate's denominator within the exact-arithmetic magnitude budget
/// (DESIGN.md section 1.8).
inline constexpr u32 kMaxRasterAxis = 4096;
static_assert(kMaxRasterAxis == kMaxBudgetSamples,
              "core/bounded.hpp's pruning magnitude analysis assumes the raster axis cap");

/// Closed integer image-plane window [y_lo, y_hi] x [z_lo, z_hi]
/// rasterized onto the pixel grid (y = image u axis, z = image v axis).
struct ImageWindow {
  i64 y_lo{0};  ///< west/left image bound (inclusive)
  i64 y_hi{1};  ///< east/right image bound (inclusive)
  i64 z_lo{0};  ///< bottom image bound (inclusive)
  i64 z_hi{1};  ///< top image bound (inclusive)
};

/// Rasterization parameters. Defaults produce a 256x192 single-sample
/// image of the terrain's full bounding window.
struct RasterOptions {
  u32 width{256};       ///< output pixels per row (y axis)
  u32 height{192};      ///< output pixel rows (z axis)
  u32 supersample{1};   ///< s: s*s samples per pixel (coverage smoothing
                        ///< at T-vertex and silhouette boundaries)
  /// Image window; nullopt = default_window(terrain) (padded to odd
  /// extents so sample ordinates avoid the integer lattice). Sharded and
  /// monolithic rasterizations of the same terrain use the same default.
  std::optional<ImageWindow> window{};
  int threads{0};       ///< worker override; 0 = the calling thread's par::max_threads()
  /// Fork-join executor for this rasterization; nullopt = the calling
  /// thread's par::backend(). Never changes the output, only wall clock.
  std::optional<par::Backend> backend{};
};

/// The image-space product: row-major pixel grids, row 0 = top (z_hi).
struct ImageRaster {
  u32 width{0};        ///< pixels per row
  u32 height{0};       ///< pixel rows
  u32 supersample{1};  ///< samples per pixel axis used to produce it
  ImageWindow window{};///< the window actually rasterized (after padding)

  std::vector<u32> ids;        ///< visible source-triangle id or kNoTriangle
  std::vector<float> depth;    ///< x of the visible point (mean over the
                               ///< winning triangle's samples); 0 if none
  std::vector<float> coverage; ///< fraction of samples that hit, in [0, 1]

  u64 crossings{0};    ///< visible-edge column crossings scanned (exact,
                       ///< machine/backend/p-independent; 0 for the oracle)
  u64 hit_samples{0};  ///< samples that hit a triangle (ditto)
  u64 samples{0};      ///< total samples = (width*s) * (height*s)

  /// Pixel accessors for (row, col), row 0 = top.
  u32 id_at(u32 row, u32 col) const { return ids[std::size_t{row} * width + col]; }
  /// \copydoc id_at
  float depth_at(u32 row, u32 col) const { return depth[std::size_t{row} * width + col]; }
  /// \copydoc id_at
  float coverage_at(u32 row, u32 col) const { return coverage[std::size_t{row} * width + col]; }
};

/// Throws std::invalid_argument unless `opt` can be rasterized: width,
/// height and supersample >= 1, width and height times supersample <=
/// kMaxRasterAxis, and — when set — a window with y_lo < y_hi and
/// z_lo < z_hi. The one check of raster options: every entry point below,
/// raycast_reference and stream::stream_solve run it before any work.
void validate(const RasterOptions& opt);

/// The terrain's full image-plane bounding window, padded (hi side) to
/// odd y/z extents so that no sample ordinate of any resolution is an
/// integer — keeping every column clear of vertices and slivers, which
/// all live on the integer lattice.
ImageWindow default_window(const Terrain& t);

/// Exact sample ordinate of image sub-column `i` in [0, width*s): the
/// center of the i-th of width*s uniform strips of [y_lo, y_hi]. Shared
/// by the scan-converter and the ray-cast oracle so both sample the
/// identical points.
QY sample_y(const ImageWindow& w, u32 width, u32 supersample, u32 i);

/// The PixelBudget describing exactly the y-sample lattice `rasterize`
/// will use for these options on this terrain (opt.window resolved through
/// default_window like rasterize does): plug it into
/// HsrOptions::pixel_budget and the bounded solve's raster at these options
/// is bitwise identical to the exact solve's (DESIGN.md section 1.12).
/// \throws std::invalid_argument when `opt` fails validate().
PixelBudget pixel_budget(const Terrain& t, const RasterOptions& opt);

/// Exact sample ordinate of image sub-row `j` in [0, height*s), counted
/// from the top: the center of the j-th uniform strip of [z_hi, z_lo].
QY sample_z(const ImageWindow& w, u32 height, u32 supersample, u32 j);

/// Depth (x) of triangle `tri`'s supporting plane at image point (y, z),
/// rounded to double only at the very end; nullopt when the plane is
/// parallel to the viewing axis (the triangle is seen edge-on and has no
/// well-defined per-pixel depth). Shared by the scan-converter and the
/// oracle so agreeing pixels carry bit-identical depths.
std::optional<double> plane_depth(const Terrain& t, u32 tri, const QY& y, const QY& z);

/// Scan-convert `m` (a solved map of `t`) into an image raster.
/// Output is bit-identical across backends and thread counts. Cost:
/// O(k + W·s·(X log X + H·s)) where X is the mean number of visible
/// crossings per column — output-sensitive in the visible scene, never
/// in n.
/// \throws std::invalid_argument when `opt` fails validate() or `m` was
///         not solved from `t` (its edge_slots() differ from t's edge count).
ImageRaster rasterize(const Terrain& t, const VisibilityMap& m, const RasterOptions& opt = {});

/// Rasterize from *unstitched* per-slab maps (`slab_maps[i]` indexed by
/// slab-local edge ids, nullptr for empty/unsolved slabs — the shape
/// shard::ShardedEngine::solve_slabs returns). Each slab rasterizes its
/// own disjoint band of image columns; the result — ids translated to
/// source-triangle ids via SlabTerrain::global_tri — is bit-identical to
/// `rasterize` of the monolithic solve with the same options.
/// \throws std::invalid_argument when `opt` fails validate(), when
///         `slab_maps` does not hold one entry per slab of `plan`, or when a
///         non-null slab map was not solved from its slab's terrain.
ImageRaster rasterize_sharded(const shard::ShardPlan& plan,
                              std::span<const VisibilityMap* const> slab_maps,
                              const RasterOptions& opt = {});

/// Smallest sub-column index in [0, width*supersample] whose exact sample
/// ordinate is >= `cut` (> `cut` when `strictly_greater`): the band-
/// ownership binary search shared by rasterize_sharded and the out-of-core
/// streaming pipeline (src/stream/). Exact (QY comparison), so two callers
/// always agree on where a band starts.
u32 first_sub(const ImageWindow& w, u32 width, u32 supersample, i64 cut, bool strictly_greater);

/// Sub-column samples of a contiguous band [sub_lo, sub_hi) of the image,
/// scan-converted from one terrain + (unstitched, possibly rebased) map:
/// the building block the streaming pipeline aggregates into pixel bands.
/// `ids`/`depths` are sub-column-major — sub-column sub_lo+i's samples at
/// [i*height*s, (i+1)*height*s), top row first — so the s sub-columns of a
/// pixel column sit contiguously in exactly the layout
/// detail::aggregate_column consumes.
struct BandScan {
  u32 sub_lo{0}, sub_hi{0};   ///< the band scanned, in image sub-columns
  std::vector<u32> ids;       ///< (sub_hi-sub_lo) * height*s visible ids
  std::vector<double> depths; ///< matching depths (0 where no hit)
  u64 crossings{0};           ///< visible-edge crossings scanned (exact)
  u64 hit_samples{0};         ///< samples that hit a triangle (exact)
};

/// Scan-convert the band [sub_lo, sub_hi) against one terrain + map. A
/// null `t` produces a background band (all kNoTriangle, zero counters).
/// `tri_map` translates local to source triangle ids (null = identity).
/// Fanned over the fork-join backend; bit-identical across backends and
/// thread counts, and — summed over any banding of the image under the
/// same window — bit-identical to the counters and samples `rasterize`
/// produces monolithically (tests/test_stream.cpp).
/// \throws std::invalid_argument when `opt` fails validate(), `win`
///         has no positive extent on both axes, sub_lo > sub_hi, the band
///         ends beyond the image (sub_hi > width * supersample), or a
///         non-null `t` comes without its map or with a map solved from
///         another terrain.
BandScan scan_band(const Terrain* t, const VisibilityMap* m, const std::vector<u32>* tri_map,
                   const ImageWindow& win, const RasterOptions& opt, u32 sub_lo, u32 sub_hi);

namespace detail {

/// Aggregate the s x (height*s) samples of one output column `c` into its
/// pixels (winner id by sample majority — ties to the smaller id — depth
/// as the mean over the winner's samples in fixed sample order, coverage
/// as hit fraction). `sub_ids`/`sub_depths` are sub-column-major: sample
/// (k, j) at index k*(height*s) + j, j counted from the top. Shared by
/// rasterize and the oracle so aggregation is bit-identical.
void aggregate_column(u32 c, u32 width, u32 height, u32 supersample,
                      std::span<const u32> sub_ids, std::span<const double> sub_depths,
                      std::span<u32> ids, std::span<float> depth, std::span<float> coverage);

}  // namespace detail

}  // namespace thsr::raster

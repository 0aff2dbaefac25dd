#pragma once
/// \file stream.hpp
/// Out-of-core streaming solve: hidden-surface removal + rasterization of
/// DEMs far larger than resident memory, with a bounded resident-slab
/// budget (DESIGN.md section 1.11).
///
/// The pipeline walks the grid north to south in **slab windows** on the
/// streaming lattice (dem_lattice.hpp), `resident_slabs` windows at a
/// time. The caller reads each group's rows strictly forward and fixes
/// every window's triangle-id base and image band in slab order; then one
/// par::fan_items runs a **whole-slab task** per window — build its
/// rebased terrain, `prepare()` and solve it with a recycled HsrEngine,
/// scan-convert its disjoint band of image sub-columns (raster::scan_band
/// against the *unstitched* slab map, exactly the rasterize_sharded
/// band-ownership rule). Back on the caller, in slab order, the group's
/// holdings are charged to the residency meter, completed pixel columns
/// are aggregated and handed to a BandSink, and the group is freed. At
/// most `resident_slabs` windows are ever materialized at once — the
/// streaming analogue of Haverkort & Toma's bounded-memory grid traversal
/// — and every byte the pipeline holds (row buffers, slab terrains, engine
/// arenas, maps, band buffers) is charged to a meter whose peak is
/// reported and, when `resident_bytes_budget` is set, *enforced*:
/// exceeding it throws, so a bench run completing at all is the
/// resident-bytes gate (bench/bench_stream.cpp).
///
/// **Raster precision.** The stream only ever emits a raster, so each slab
/// solves with a PixelBudget (core/bounded.hpp): the image's own sample
/// lattice shifted onto the slab's rebased coordinates. Structure between
/// two samples is never materialized, and the raster stays bitwise the
/// exact solve's (DESIGN.md section 1.12). There is no exact stream: a
/// caller's `solve.pixel_budget` is rejected.
///
/// **Determinism.** The emitted image — ids, depths, coverage — the work
/// counters and the meter's peak are bit-identical across backends and
/// thread counts; image and counters also across every resident_slabs
/// budget. The image is bit-identical to the monolithic exact solve
/// (`terrain_from_rows` + `rasterize` under the same `stream_window`)
/// whenever the grid is small enough for both to run
/// (tests/test_stream.cpp). The budget controls *when* slabs are resident,
/// never *what* is computed: all budgets run the identical per-slab tasks,
/// so counters cannot drift. Crossing/hit counters are attributed to the
/// band that scanned the sub-column, so their totals — though not their
/// per-band split at supersample > 1 — equal the monolithic
/// rasterization's.
///
/// **Two passes.** Height quantization needs the global z range before the
/// first slab solves; unless StreamOptions::z_range pins it, a prescan
/// pass reads every row once (quantizing only, nothing retained) and the
/// source is reset() for the solve pass. Sources therefore make two
/// strictly-forward passes; within a pass rows are never re-read — the
/// two-row window overlap between consecutive slabs is carried in memory.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/hsr.hpp"
#include "parallel/work_depth.hpp"
#include "raster/raster.hpp"
#include "stream/dem_lattice.hpp"
#include "terrain/asc_io.hpp"

namespace thsr::stream {

/// Row-major height feed for the pipeline. Implementations: GridRowSource
/// (an in-memory AscGrid — tests and the monolithic comparison) and
/// AscFileRowSource (an AscRowReader over an .asc file, optionally
/// memory-mapped — the out-of-core path). The pipeline reads each pass
/// strictly forward (read_rows ranges with non-decreasing, non-overlapping
/// row_lo) and calls reset() between passes.
class RowSource {
 public:
  virtual ~RowSource() = default;
  virtual u32 rows() const = 0;
  virtual u32 cols() const = 0;
  virtual std::optional<double> nodata() const = 0;
  /// Rows [row_lo, row_hi) into `out` ((row_hi - row_lo) * cols doubles).
  virtual void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) = 0;
  /// Rewind for another pass.
  virtual void reset() = 0;
};

/// RowSource over a fully materialized AscGrid (not owned).
class GridRowSource final : public RowSource {
 public:
  explicit GridRowSource(const AscGrid& g) : g_(&g) {}
  u32 rows() const override { return g_->nrows; }
  u32 cols() const override { return g_->ncols; }
  std::optional<double> nodata() const override { return g_->nodata; }
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) override;
  void reset() override {}

 private:
  const AscGrid* g_;
};

/// RowSource over an .asc file via AscRowReader (memory-mapped when the
/// platform allows, else read in 64 KiB chunks). This is the path with
/// **no total-size cap**: only the reader's window on the file and the
/// pipeline's slab windows are ever resident.
class AscFileRowSource final : public RowSource {
 public:
  explicit AscFileRowSource(const std::string& path, bool prefer_mmap = true);
  ~AscFileRowSource() override;
  u32 rows() const override;
  u32 cols() const override;
  std::optional<double> nodata() const override;
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) override;
  void reset() override;

 private:
  std::unique_ptr<AscRowReader> reader_;
};

struct StreamOptions {
  /// Grid rows per slab; 0 derives the largest count whose window fits
  /// the coordinate budget (max_window_rows). Values whose window would
  /// exceed the budget are rejected at run time.
  u32 slab_rows{0};
  /// Resident-slab budget B >= 1 (checked): slabs are processed in groups
  /// of B — B windows read in slab order, one task per window fanned over
  /// the backend (build, prepare, solve, scan its band), then each band
  /// aggregated, emitted, and freed in slab order. B trades resident bytes
  /// for parallelism; the output is identical for every B.
  u32 resident_slabs{1};
  /// When nonzero: throw std::runtime_error the moment tracked resident
  /// bytes would exceed this. 0 = track peak only.
  u64 resident_bytes_budget{0};
  LatticeOptions lattice{};
  /// Quantized height range [z_lo, z_hi] of the data; nullopt = prescan
  /// the source to measure it (the extra pass).
  std::optional<std::pair<i64, i64>> z_range{};
  u32 width{256};      ///< output pixels per row
  u32 height{192};     ///< output pixel rows
  u32 supersample{1};  ///< samples per pixel axis
  /// Per-slab solve configuration. threads/backend scope the *group* fan
  /// (ShardedEngine convention); the per-slab solves themselves run at
  /// threads = 1 on their workers. `pixel_budget` must stay unset: each
  /// slab derives its own from the image (see Raster precision above).
  HsrOptions solve{};
};

/// Where finished pixel bands go. Bands arrive left to right, disjoint,
/// and tile [0, width) exactly (tests/test_stream.cpp asserts the
/// no-gap/no-overlap contract on every run).
class BandSink {
 public:
  virtual ~BandSink() = default;
  /// Pixel columns [col_lo, col_hi) of the final image. `band` has
  /// width == col_hi - col_lo, the full image height, and the global
  /// window; its counters cover the sub-columns scanned for this band.
  virtual void emit(u32 col_lo, u32 col_hi, const raster::ImageRaster& band) = 0;
};

struct StreamStats {
  u32 slabs{0};            ///< slab windows processed
  u32 bands_emitted{0};    ///< nonempty pixel bands handed to the sink
  u64 rows_read{0};        ///< grid rows parsed (both passes)
  u64 triangles{0};        ///< global triangle count
  u64 k_pieces{0};         ///< summed per-slab output size of the bounded
                           ///< (raster-precision) solves
  u64 crossings{0};        ///< visible-edge crossings scanned (== monolithic)
  u64 hit_samples{0};      ///< samples hitting a triangle (== monolithic)
  u64 samples{0};          ///< total image samples
  Counters work{};         ///< summed work counters of the slabs' bounded
                           ///< prepare + solve (budget-invariant)
  u64 peak_resident_bytes{0};  ///< peak of the residency meter
  u64 max_rss_bytes{0};        ///< getrusage max RSS probe (informational;
                               ///< whole process, machine-dependent)
  raster::ImageWindow window{};  ///< the global window rasterized
  i64 z_lo{0}, z_hi{0};          ///< quantized height range used
};

/// Run the pipeline: solve + rasterize `src` into `sink`.
/// \throws std::invalid_argument, before reading any row, when
///         resident_slabs == 0, solve.pixel_budget is set, or the raster
///         dimensions fail raster::validate; std::runtime_error on
///         malformed input, coordinate-budget or resident-budget
///         violations (the lowest slab's error when several slabs of one
///         group fail).
StreamStats stream_solve(RowSource& src, const StreamOptions& opt, BandSink& sink);

/// Convenience: stream straight out of an .asc file.
StreamStats stream_solve_asc(const std::string& path, const StreamOptions& opt, BandSink& sink);

}  // namespace thsr::stream

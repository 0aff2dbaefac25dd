/// Property tests for the out-of-core streaming pipeline (src/stream/):
/// the streamed image must be **bitwise identical** to the monolithic
/// solve-and-rasterize of the same grid under the same window — across
/// seeds, terrain families, slab budgets, resident budgets, supersample
/// factors, and backends — and the emitted bands must tile the image with
/// no gap or overlap. Counters (solve work, crossings, hit samples) must
/// not depend on the resident budget or backend at all, and the metered
/// peak of a file-backed stream must not grow with the grid's row count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hsr.hpp"
#include "io/image.hpp"
#include "parallel/backend.hpp"
#include "raster/raster.hpp"
#include "shard/sharded_engine.hpp"
#include "stream/dem_lattice.hpp"
#include "stream/sinks.hpp"
#include "stream/stream.hpp"
#include "support/stream_grids.hpp"
#include "terrain/asc_io.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

/// The monolithic reference: full-grid terrain on the streaming lattice,
/// one solve, one rasterization under the explicitly given window.
raster::ImageRaster reference_image(const AscGrid& g, const raster::ImageWindow& win, u32 width,
                                    u32 height, u32 supersample) {
  const Terrain t = stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata);
  const HsrResult r = hidden_surface_removal(t);
  raster::RasterOptions ropt;
  ropt.width = width;
  ropt.height = height;
  ropt.supersample = supersample;
  ropt.window = win;
  return raster::rasterize(t, r.map, ropt);
}

void expect_images_identical(const raster::ImageRaster& a, const raster::ImageRaster& b) {
  ASSERT_EQ(a.width, b.width);
  ASSERT_EQ(a.height, b.height);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.depth, b.depth);        // float vectors: bitwise-equal values
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.crossings, b.crossings);
  EXPECT_EQ(a.hit_samples, b.hit_samples);
  EXPECT_EQ(a.samples, b.samples);
}

void expect_bands_tile(const std::vector<std::pair<u32, u32>>& bands, u32 width) {
  ASSERT_FALSE(bands.empty());
  EXPECT_EQ(bands.front().first, 0u);
  EXPECT_EQ(bands.back().second, width);
  for (std::size_t i = 0; i < bands.size(); ++i) {
    EXPECT_LT(bands[i].first, bands[i].second);
    if (i + 1 < bands.size()) EXPECT_EQ(bands[i].second, bands[i + 1].first);
  }
}

stream::StreamStats stream_grid(const AscGrid& g, const stream::StreamOptions& opt,
                                stream::MemoryBandSink& sink) {
  stream::GridRowSource src(g);
  return stream::stream_solve(src, opt, sink);
}

// ---------------------------------------------------------------------------
// The tentpole property: streamed == monolithic, across everything
// ---------------------------------------------------------------------------

TEST(Stream, MatchesMonolithicAcrossSeedsFamiliesAndBudgets) {
  const u32 W = 40, H = 30;
  for (const u64 seed : {u64{1}, u64{7}}) {
    for (const test::GridFamily fam : test::kAllGridFamilies) {
      const AscGrid g = test::make_asc_grid(20, 17, fam, seed);
      // slab_rows=3 over 16 cell rows -> S = 6 slabs.
      const u32 S = 6;
      std::optional<raster::ImageRaster> ref;
      std::optional<Counters> work;
      for (const u32 budget : {1u, 2u, S / 2, S, S + 3}) {
        stream::StreamOptions opt;
        opt.slab_rows = 3;
        opt.resident_slabs = budget;
        opt.width = W;
        opt.height = H;
        stream::MemoryBandSink sink(W, H, 1);
        const stream::StreamStats st = stream_grid(g, opt, sink);
        EXPECT_EQ(st.slabs, S);
        expect_bands_tile(sink.bands(), W);
        if (!ref) {
          ref = reference_image(g, st.window, W, H, 1);
          work = st.work;
        } else {
          // Counters are budget-invariant, bit for bit.
          EXPECT_TRUE(st.work == *work) << "family " << static_cast<int>(fam) << " budget "
                                        << budget;
        }
        expect_images_identical(sink.image(), *ref);
      }
    }
  }
}

TEST(Stream, MatchesMonolithicAcrossBackends) {
  const u32 W = 32, H = 24;
  const AscGrid g = test::make_asc_grid(16, 13, test::GridFamily::Smooth, 3);
  std::optional<raster::ImageRaster> ref;
  std::optional<Counters> work;
  for (const par::Backend b : par::available_backends()) {
    stream::StreamOptions opt;
    opt.slab_rows = 4;
    opt.resident_slabs = 2;
    opt.width = W;
    opt.height = H;
    opt.solve.backend = b;
    opt.solve.threads = b == par::Backend::Serial ? 1 : 2;
    stream::MemoryBandSink sink(W, H, 1);
    const stream::StreamStats st = stream_grid(g, opt, sink);
    if (!ref) {
      ref = reference_image(g, st.window, W, H, 1);
      work = st.work;
    }
    EXPECT_TRUE(st.work == *work) << "backend " << static_cast<int>(b);
    expect_images_identical(sink.image(), *ref);
  }
}

TEST(Stream, SupersampledBandBoundariesSplitPixelsCorrectly) {
  // supersample 3 with narrow slabs: band boundaries routinely land inside
  // a pixel column, exercising the sub-column carry.
  const u32 W = 25, H = 18, sup = 3;
  const AscGrid g = test::make_asc_grid(14, 15, test::GridFamily::Smooth, 11);
  std::optional<raster::ImageRaster> ref;
  for (const u32 budget : {1u, 3u, 7u}) {
    stream::StreamOptions opt;
    opt.slab_rows = 2;  // S = 7
    opt.resident_slabs = budget;
    opt.width = W;
    opt.height = H;
    opt.supersample = sup;
    stream::MemoryBandSink sink(W, H, sup);
    const stream::StreamStats st = stream_grid(g, opt, sink);
    expect_bands_tile(sink.bands(), W);
    if (!ref) ref = reference_image(g, st.window, W, H, sup);
    expect_images_identical(sink.image(), *ref);
  }
}

TEST(Stream, MatchesRasterizeSharded) {
  // Satellite fidelity check against the in-core sharded path itself.
  const u32 W = 36, H = 28;
  const AscGrid g = test::make_asc_grid(18, 13, test::GridFamily::Smooth, 5);
  stream::StreamOptions opt;
  opt.slab_rows = 4;
  opt.width = W;
  opt.height = H;
  stream::MemoryBandSink sink(W, H, 1);
  const stream::StreamStats st = stream_grid(g, opt, sink);

  const Terrain t = stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata);
  shard::ShardedEngine se;
  se.prepare(t, 4);
  const auto slab_results = se.solve_slabs();
  std::vector<const VisibilityMap*> maps;
  for (const auto& r : slab_results) maps.push_back(r ? &r->map : nullptr);
  raster::RasterOptions ropt;
  ropt.width = W;
  ropt.height = H;
  ropt.window = st.window;
  const raster::ImageRaster sharded = raster::rasterize_sharded(se.plan(), maps, ropt);
  expect_images_identical(sink.image(), sharded);
}

// ---------------------------------------------------------------------------
// Budget edges (the kMaxRasterAxis pattern): 0 rejected, 1 works, >= S
// degenerates to the in-core shape bit-identically
// ---------------------------------------------------------------------------

TEST(Stream, ResidentBudgetZeroRejected) {
  const AscGrid g = test::make_asc_grid(8, 7, test::GridFamily::Flat, 1);
  stream::StreamOptions opt;
  opt.resident_slabs = 0;
  stream::MemoryBandSink sink(opt.width, opt.height, 1);
  stream::GridRowSource src(g);
  EXPECT_THROW((void)stream::stream_solve(src, opt, sink), std::invalid_argument);
}

/// Counts the rows a source hands out.
class CountingSource final : public stream::RowSource {
 public:
  explicit CountingSource(const AscGrid& g) : inner_(g) {}
  u32 rows() const override { return inner_.rows(); }
  u32 cols() const override { return inner_.cols(); }
  std::optional<double> nodata() const override { return inner_.nodata(); }
  void read_rows(u32 row_lo, u32 row_hi, std::span<double> out) override {
    rows_read += row_hi - row_lo;
    inner_.read_rows(row_lo, row_hi, out);
  }
  void reset() override {}
  u64 rows_read{0};

 private:
  stream::GridRowSource inner_;
};

TEST(Stream, CallerPixelBudgetRejected) {
  // The stream derives every slab's budget from its rebased window; a
  // caller's budget would prune against a misaligned lattice and corrupt
  // the image, so it is refused before any row is read.
  const AscGrid g = test::make_asc_grid(16, 40, test::GridFamily::Smooth, 3);
  stream::StreamOptions opt;
  opt.width = 24;
  opt.height = 16;
  opt.solve.pixel_budget = PixelBudget{0, 1001, opt.width};
  stream::MemoryBandSink sink(opt.width, opt.height, 1);
  CountingSource src(g);
  EXPECT_THROW((void)stream::stream_solve(src, opt, sink), std::invalid_argument);
  EXPECT_EQ(src.rows_read, 0u);
}

TEST(Stream, ResidentBytesBudgetEnforced) {
  const AscGrid g = test::make_asc_grid(16, 13, test::GridFamily::Smooth, 2);
  stream::StreamOptions opt;
  opt.slab_rows = 4;
  opt.width = 32;
  opt.height = 24;

  opt.resident_bytes_budget = 1024;  // absurdly small: must throw, not crash
  {
    stream::MemoryBandSink sink(opt.width, opt.height, 1);
    stream::GridRowSource src(g);
    EXPECT_THROW((void)stream::stream_solve(src, opt, sink), std::runtime_error);
  }

  opt.resident_bytes_budget = 0;  // measure the actual peak...
  u64 peak = 0;
  {
    stream::MemoryBandSink sink(opt.width, opt.height, 1);
    const stream::StreamStats st = stream_grid(g, opt, sink);
    peak = st.peak_resident_bytes;
    EXPECT_GT(peak, 0u);
  }
  opt.resident_bytes_budget = peak;  // ...which must then pass as a budget
  {
    stream::MemoryBandSink sink(opt.width, opt.height, 1);
    const stream::StreamStats st = stream_grid(g, opt, sink);
    EXPECT_LE(st.peak_resident_bytes, peak);
  }
}

TEST(Stream, SlabWindowOverCoordinateBudgetThrows) {
  // A grid wide enough that max_window_rows is 2: slab_rows = 2 makes the
  // very first slab window span 3 grid rows, which blows the rebased
  // coordinate budget and must be rejected (before any solve work), never
  // silently truncated.
  AscGrid g;
  g.ncols = 100000;
  g.nrows = 5;
  g.cellsize = 1.0;
  g.values.assign(std::size_t{g.nrows} * g.ncols, 1.0);
  ASSERT_EQ(stream::max_window_rows(g.ncols), 2u);
  stream::StreamOptions opt;
  opt.slab_rows = 2;
  stream::MemoryBandSink sink(opt.width, opt.height, 1);
  stream::GridRowSource src(g);
  EXPECT_THROW((void)stream::stream_solve(src, opt, sink), std::runtime_error);
}

TEST(Stream, LatticeEntryPointsRejectBadArguments) {
  const std::vector<double> v(12, 1.0);  // 3 rows x 4 columns
  EXPECT_THROW((void)stream::max_window_rows(1), std::invalid_argument);
  EXPECT_THROW((void)stream::window_triangles(4, 4, v, std::nullopt), std::invalid_argument);
  EXPECT_THROW((void)stream::build_rows(1, 0, 3, v, std::nullopt, 0), std::invalid_argument);
  EXPECT_THROW((void)stream::build_rows(4, 2, 2, v, std::nullopt, 0), std::invalid_argument);
  EXPECT_THROW((void)stream::build_rows(4, 0, 4, v, std::nullopt, 0), std::invalid_argument);
  EXPECT_THROW((void)stream::stream_window(1, 3, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)stream::stream_window(4, 1, 0, 1), std::invalid_argument);
  EXPECT_THROW((void)stream::stream_window(4, 3, 2, 1), std::invalid_argument);
  // The nearest valid calls are accepted.
  EXPECT_GT(stream::max_window_rows(2), 0u);
  EXPECT_EQ(stream::window_triangles(4, 3, v, std::nullopt), 12u);
  EXPECT_FALSE(stream::build_rows(4, 0, 3, v, std::nullopt, 0).empty());
  EXPECT_NO_THROW((void)stream::stream_window(4, 3, 1, 1));
}

TEST(Stream, NodataOnlyGridStreamsToBackground) {
  AscGrid g = test::make_asc_grid(8, 7, test::GridFamily::Flat, 1);
  for (double& v : g.values) v = *g.nodata;
  stream::StreamOptions opt;
  opt.slab_rows = 2;
  opt.width = 16;
  opt.height = 12;
  stream::MemoryBandSink sink(opt.width, opt.height, 1);
  const stream::StreamStats st = stream_grid(g, opt, sink);
  EXPECT_EQ(st.triangles, 0u);
  EXPECT_EQ(st.hit_samples, 0u);
  expect_bands_tile(sink.bands(), opt.width);
  for (const u32 id : sink.image().ids) EXPECT_EQ(id, raster::kNoTriangle);
  // The in-core loader rejects the same grid outright.
  EXPECT_THROW((void)stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Out-of-core scale: >= 100x the resident window, end to end
// ---------------------------------------------------------------------------

TEST(Stream, HundredTimesResidentCapacityStreamsAndMatches) {
  // 2001 x 8 grid, slab windows of at most 10 rows: the grid is ~200x the
  // resident window. Small enough in absolute terms that the monolithic
  // path still fits for the bitwise comparison.
  const u32 W = 32, H = 24;
  AscGrid g;
  g.ncols = 8;
  g.nrows = 2001;
  g.cellsize = 1.0;
  g.values.resize(std::size_t{g.nrows} * g.ncols);
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      g.values[std::size_t{r} * g.ncols + c] =
          static_cast<double>((r * 7 + c * 5) % 23) + (r % 31 == 0 ? 40.0 : 0.0);
    }
  }
  stream::StreamOptions opt;
  opt.slab_rows = 8;  // S = 250
  opt.width = W;
  opt.height = H;
  opt.resident_bytes_budget = 16u << 20;
  stream::MemoryBandSink sink(W, H, 1);
  const stream::StreamStats st = stream_grid(g, opt, sink);
  EXPECT_EQ(st.slabs, 250u);
  EXPECT_LE(st.peak_resident_bytes, opt.resident_bytes_budget);
  expect_bands_tile(sink.bands(), W);
  expect_images_identical(sink.image(), reference_image(g, st.window, W, H, 1));
}

TEST(Stream, ResidencyDoesNotGrowWithRowCount) {
  // One 32-column synthetic DEM at 481 rows (15 slab windows) and at 3,489
  // rows (109 windows, ~100x one window), streamed from .asc files under an
  // enforced budget of 8 MiB per resident slab. Both runs must complete —
  // the meter throws past its budget — and the tall run must not peak above
  // the short one: what stays resident is bounded by the slab budget, never
  // by the grid.
  constexpr u64 kBytesPerResidentSlab = u64{8} << 20;
  std::vector<std::string> paths;
  for (const u32 rows : {481u, 3489u}) {
    paths.push_back(test::temp_path("thsr_stream_r" + std::to_string(rows), ".asc"));
    save_asc_grid(support::stream_grid(32, rows, /*seed=*/11), paths.back());
  }
  for (const u32 B : {1u, 2u, 4u}) {
    stream::StreamOptions opt;
    opt.slab_rows = 32;
    opt.resident_slabs = B;
    opt.resident_bytes_budget = B * kBytesPerResidentSlab;
    opt.width = 160;
    opt.height = 120;
    opt.supersample = 2;
    opt.solve.algorithm = Algorithm::Parallel;
    opt.solve.threads = 2;
    u64 peak[2] = {0, 0};
    for (std::size_t i = 0; i < paths.size(); ++i) {
      stream::AscFileRowSource src(paths[i]);
      stream::NullBandSink sink;
      try {
        peak[i] = stream::stream_solve(src, opt, sink).peak_resident_bytes;
      } catch (const std::exception& e) {
        ADD_FAILURE() << paths[i] << " at B = " << B << ": " << e.what();
      }
    }
    EXPECT_LE(peak[1], peak[0]) << "B = " << B << ": the peak grew with the row count";
  }
  for (const std::string& p : paths) std::remove(p.c_str());
}

// ---------------------------------------------------------------------------
// Tall grids: rebased windows far past 2^22, where the slab budgets sit
// ---------------------------------------------------------------------------

TEST(Stream, LateSlabOfTallGridBoundedScanEqualsExact) {
  // 3 x 110,000 grid: a window starting at row 108,000 is rebased by
  // Delta = 40 * 108,000 > 2^22. Its bounded solve (the global lattice
  // shifted by -Delta) must scan to exactly the exact solve's band.
  const u32 C = 3, R = 110'000, lo = 108'000, hi = R;
  const AscGrid g = test::make_asc_grid(C, R, test::GridFamily::Smooth, 17);
  const i64 ystep = stream::lattice_ystep(C);
  ASSERT_GT(ystep * lo, i64{1} << 22);
  const std::span<const double> rows(g.values.data() + std::size_t{lo} * C,
                                     std::size_t{hi - lo} * C);
  const stream::SlabBuild b = stream::build_rows(C, lo, hi, rows, g.nodata, /*tri_base=*/0);
  ASSERT_FALSE(b.empty());

  raster::RasterOptions ropt;
  ropt.width = 1024;
  ropt.height = 24;
  ropt.supersample = 2;
  const raster::ImageWindow win = stream::stream_window(C, R, 0, 25);
  const i64 dy = ystep * lo;
  const raster::ImageWindow swin{win.y_lo - dy, win.y_hi - dy, win.z_lo, win.z_hi};
  const u32 sub_lo = raster::first_sub(win, ropt.width, ropt.supersample, ystep * (lo + 1), false);
  const u32 sub_hi = ropt.width * ropt.supersample;
  ASSERT_GT(sub_hi - sub_lo, 20u);

  HsrEngine engine;
  engine.prepare(b.terrain);
  const HsrResult exact = engine.solve({});
  HsrOptions bounded_opt;
  bounded_opt.pixel_budget = PixelBudget{swin.y_lo, swin.y_hi, ropt.width * ropt.supersample};
  const HsrResult bounded = engine.solve(bounded_opt);
  EXPECT_LT(bounded.stats.k_pieces, exact.stats.k_pieces);
  const raster::BandScan want =
      raster::scan_band(&b.terrain, &exact.map, &b.global_tri, swin, ropt, sub_lo, sub_hi);
  const raster::BandScan got =
      raster::scan_band(&b.terrain, &bounded.map, &b.global_tri, swin, ropt, sub_lo, sub_hi);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.depths, want.depths);
  EXPECT_EQ(got.crossings, want.crossings);
  EXPECT_EQ(got.hit_samples, want.hit_samples);
}

TEST(Stream, TallGridStreamsAtDefaultSlabs) {
  // The derived slab height makes the first window span y up to ~2^22, and
  // later windows rebase by more: every slab budget must be accepted.
  const AscGrid g = test::make_asc_grid(3, 110'000, test::GridFamily::Smooth, 17);
  stream::StreamOptions opt;
  opt.width = 64;
  opt.height = 24;
  opt.resident_slabs = 2;
  stream::MemoryBandSink sink(opt.width, opt.height, 1);
  const stream::StreamStats st = stream_grid(g, opt, sink);
  EXPECT_GT(st.window.y_hi, i64{1} << 22);
  EXPECT_GE(st.slabs, 3u);
  EXPECT_GT(st.hit_samples, 0u);
  expect_bands_tile(sink.bands(), opt.width);
}

// ---------------------------------------------------------------------------
// File-backed source: identical to the in-memory source, mapped or not
// ---------------------------------------------------------------------------

TEST(Stream, AscFileSourceMatchesGridSource) {
  const AscGrid g = test::make_asc_grid(14, 11, test::GridFamily::Holes, 9);
  const std::string path = test::temp_path("thsr_stream_src", ".asc");
  save_asc_grid(g, path);

  stream::StreamOptions opt;
  opt.slab_rows = 3;
  opt.width = 28;
  opt.height = 20;
  stream::MemoryBandSink want(opt.width, opt.height, 1);
  (void)stream_grid(g, opt, want);

  for (const bool mmap : {true, false}) {
    stream::AscFileRowSource src(path, mmap);
    stream::MemoryBandSink got(opt.width, opt.height, 1);
    (void)stream::stream_solve(src, opt, got);
    expect_images_identical(got.image(), want.image());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Disk sinks uphold the tiling contract
// ---------------------------------------------------------------------------

TEST(Stream, PgmCoverageSinkRoundTrips) {
  const AscGrid g = test::make_asc_grid(12, 11, test::GridFamily::Smooth, 4);
  const std::string path = test::temp_path("thsr_stream_cov", ".pgm");
  stream::StreamOptions opt;
  opt.slab_rows = 3;
  opt.width = 24;
  opt.height = 16;

  stream::MemoryBandSink mem(opt.width, opt.height, 1);
  (void)stream_grid(g, opt, mem);

  stream::PgmCoverageBandSink pgm(path, opt.width, opt.height);
  {
    stream::GridRowSource src(g);
    (void)stream::stream_solve(src, opt, pgm);
  }
  pgm.finish();
  const io::GrayImage img = io::read_pgm(path);
  ASSERT_EQ(img.width, opt.width);
  ASSERT_EQ(img.height, opt.height);
  for (u32 r = 0; r < img.height; ++r) {
    for (u32 c = 0; c < img.width; ++c) {
      const auto want = static_cast<std::uint16_t>(
          std::llround(static_cast<double>(mem.image().coverage_at(r, c)) * 65535.0));
      EXPECT_EQ(img.at(r, c), want);
    }
  }
  std::remove(path.c_str());
}

TEST(Stream, AscTileSinkTilesTheImage) {
  const AscGrid g = test::make_asc_grid(12, 9, test::GridFamily::Smooth, 6);
  const std::string prefix = test::temp_path("thsr_stream_tile");
  stream::StreamOptions opt;
  opt.slab_rows = 2;
  opt.width = 20;
  opt.height = 14;
  stream::AscTileBandSink sink(prefix, opt.width, opt.height);
  {
    stream::GridRowSource src(g);
    (void)stream::stream_solve(src, opt, sink);
  }
  sink.finish();  // throws on any gap or overlap
  u64 cols_covered = 0;
  for (const std::string& p : sink.paths()) {
    const AscGrid tile = load_asc_grid(p);
    EXPECT_EQ(tile.nrows, opt.height);
    cols_covered += tile.ncols;
    std::remove(p.c_str());
  }
  EXPECT_EQ(cols_covered, opt.width);
}

}  // namespace
}  // namespace thsr

/// Raster subsystem tests (src/raster/): scan-converter vs the brute-force
/// ray-cast oracle across families, resolutions, and supersampling;
/// bit-identity across backends and thread counts; sharded-vs-monolithic
/// raster equality without a stitch; NODATA propagation and degenerate
/// slivers; the georeferenced viewshed grid.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/hsr.hpp"
#include "raster/oracle.hpp"
#include "raster/raster.hpp"
#include "raster/viewshed.hpp"
#include "shard/sharded_engine.hpp"
#include "terrain/asc_io.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

using raster::ImageRaster;
using raster::RasterOptions;

Terrain gen(Family f, u32 grid, bool shear = true) {
  GenOptions opt;
  opt.family = f;
  opt.grid = grid;
  opt.seed = 7;
  opt.shear = shear;
  return make_terrain(opt);
}

void expect_images_equal(const ImageRaster& a, const ImageRaster& b, const char* what) {
  ASSERT_EQ(a.width, b.width) << what;
  ASSERT_EQ(a.height, b.height) << what;
  EXPECT_EQ(a.ids, b.ids) << what << ": id maps differ";
  EXPECT_EQ(a.depth, b.depth) << what << ": depth maps differ";
  EXPECT_EQ(a.coverage, b.coverage) << what << ": coverage maps differ";
  EXPECT_EQ(a.hit_samples, b.hit_samples) << what;
}

/// The scan-converted image must match the ray-cast oracle bitwise
/// (sampling, attribution, and depth evaluation are shared helpers).
void expect_matches_oracle(const Terrain& t, const RasterOptions& opt, const char* what) {
  const HsrResult r = hidden_surface_removal(t);
  const ImageRaster img = raster::rasterize(t, r.map, opt);
  const ImageRaster ref = raster::raycast_reference(t, opt);
  expect_images_equal(img, ref, what);
  EXPECT_EQ(img.samples, u64{opt.width} * opt.supersample * opt.height * opt.supersample);
}

TEST(Raster, MatchesOracleAcrossFamilies) {
  for (const Family f : kAllFamilies) {
    expect_matches_oracle(gen(f, 10), {.width = 64, .height = 48}, family_name(f));
  }
}

TEST(Raster, MatchesOracleAcrossResolutions) {
  const Terrain t = gen(Family::Fbm, 12);
  for (const u32 w : {16u, 63u, 128u}) {
    const u32 h = (w * 3) / 4;
    expect_matches_oracle(t, {.width = w, .height = h},
                          ("resolution " + std::to_string(w)).c_str());
  }
}

TEST(Raster, MatchesOracleSupersampled) {
  const Terrain t = gen(Family::RidgeFront, 10);
  expect_matches_oracle(t, {.width = 40, .height = 30, .supersample = 2}, "s=2");
  expect_matches_oracle(t, {.width = 24, .height = 20, .supersample = 3}, "s=3");
}

TEST(Raster, MatchesOracleWithSliverEdges) {
  // shear=false: axis-aligned lattice whose cross-rows are degenerate
  // sliver edges. Both sides ignore zero-width walls; the odd-extent
  // default window keeps every sample column off the integer lattice.
  expect_matches_oracle(gen(Family::Fbm, 9, /*shear=*/false), {.width = 48, .height = 36},
                        "slivers");
}

TEST(Raster, MatchesOracleOnAscTerrainWithNodata) {
  AscGrid g;
  g.ncols = 14;
  g.nrows = 12;
  g.cellsize = 10.0;
  g.nodata = -9999.0;
  g.values.resize(std::size_t{g.ncols} * g.nrows);
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      double v = 10.0 * ((r * 13 + c * 7) % 9) + 2.0 * r;
      if (r >= 4 && r <= 6 && c >= 8 && c <= 10) v = *g.nodata;  // a hole
      g.values[std::size_t{r} * g.ncols + c] = v;
    }
  }
  const Terrain t = terrain_from_asc(g);
  expect_matches_oracle(t, {.width = 56, .height = 42}, "asc+nodata");
}

TEST(Raster, BitIdenticalAcrossBackendsAndThreads) {
  const Terrain t = gen(Family::Fbm, 14);
  const HsrResult r = hidden_surface_removal(t);
  const RasterOptions base{.width = 96, .height = 64, .supersample = 2};
  const ImageRaster reference = raster::rasterize(t, r.map, base);
  for (const par::Backend b : par::available_backends()) {
    for (const int p : {1, 2, 8}) {
      RasterOptions opt = base;
      opt.threads = p;
      opt.backend = b;
      const ImageRaster img = raster::rasterize(t, r.map, opt);
      expect_images_equal(img, reference,
                          (std::string(par::backend_name(b)) + "/p" + std::to_string(p)).c_str());
      EXPECT_EQ(img.crossings, reference.crossings);
    }
  }
}

// kMaxRasterAxis caps width*supersample and height*supersample so depth
// comparisons stay inside i128 (raster.hpp). raster::validate enforces the
// cap on every public entry point with a typed error — regression-test both
// the rejection and that the exact boundary value is still accepted.
TEST(RasterLimits, RejectsAxisBeyondCap) {
  const Terrain t = gen(Family::Fbm, 8);
  const HsrResult r = hidden_surface_removal(t);
  EXPECT_THROW(
      (void)raster::rasterize(t, r.map, {.width = raster::kMaxRasterAxis + 1, .height = 4}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)raster::rasterize(t, r.map, {.width = 4, .height = raster::kMaxRasterAxis + 1}),
      std::invalid_argument);
  // The product with supersampling is what the cap bounds, not width alone.
  EXPECT_THROW((void)raster::rasterize(t, r.map,
                                       {.width = raster::kMaxRasterAxis / 2 + 1,
                                        .height = 4,
                                        .supersample = 2}),
               std::invalid_argument);
  // The ray-cast oracle enforces the same contract.
  EXPECT_THROW(
      (void)raster::raycast_reference(t, {.width = raster::kMaxRasterAxis + 1, .height = 4}),
      std::invalid_argument);
}

// Oracle hardening: zero resolutions, u32-wrapping supersample products,
// and degenerate explicit windows must all be rejected — on the oracle, the
// scan-converter, and the budget derivation alike, since a permissive
// oracle would silently weaken every differential test built on it.
TEST(RasterLimits, RejectsDegenerateResolutionsAndWindows) {
  const Terrain t = gen(Family::Fbm, 8);
  const HsrResult r = hidden_surface_removal(t);
  EXPECT_THROW((void)raster::raycast_reference(t, {.width = 0, .height = 4}),
               std::invalid_argument);
  EXPECT_THROW((void)raster::raycast_reference(t, {.width = 4, .height = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)raster::raycast_reference(t, {.width = 4, .height = 4, .supersample = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)raster::rasterize(t, r.map, {.width = 4, .height = 4, .supersample = 0}),
               std::invalid_argument);
  // Supersampling-overflow regression: width * supersample wraps to 0 in
  // u32 arithmetic, which a 32-bit product would wave through the cap.
  // The check multiplies in u64 and must still reject.
  EXPECT_THROW(
      (void)raster::raycast_reference(t, {.width = 1u << 31, .height = 4, .supersample = 2}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)raster::rasterize(t, r.map, {.width = 4, .height = 1u << 31, .supersample = 2}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)raster::pixel_budget(t, {.width = 1u << 31, .height = 4, .supersample = 2}),
      std::invalid_argument);
  // Degenerate explicit windows (empty y extent, inverted z extent).
  RasterOptions degenerate{.width = 4, .height = 4};
  degenerate.window = raster::ImageWindow{5, 5, 0, 1};
  EXPECT_THROW((void)raster::raycast_reference(t, degenerate), std::invalid_argument);
  EXPECT_THROW((void)raster::pixel_budget(t, degenerate), std::invalid_argument);
  degenerate.window = raster::ImageWindow{0, 1, 3, -3};
  EXPECT_THROW((void)raster::rasterize(t, r.map, degenerate), std::invalid_argument);
}

TEST(RasterLimits, AcceptsAxisAtCapExactly) {
  const Terrain t = gen(Family::Fbm, 8);
  const HsrResult r = hidden_surface_removal(t);
  const ImageRaster img =
      raster::rasterize(t, r.map, {.width = raster::kMaxRasterAxis, .height = 2});
  EXPECT_EQ(img.width, raster::kMaxRasterAxis);
  EXPECT_EQ(img.samples, u64{raster::kMaxRasterAxis} * 2);
  const ImageRaster ss = raster::rasterize(
      t, r.map, {.width = raster::kMaxRasterAxis / 2, .height = 2, .supersample = 2});
  EXPECT_EQ(ss.samples, u64{raster::kMaxRasterAxis} * 2 * 2);
  // The budget derivation accepts the same boundary (kMaxBudgetSamples is
  // static_asserted equal to kMaxRasterAxis).
  const PixelBudget pb =
      raster::pixel_budget(t, {.width = raster::kMaxRasterAxis / 2, .height = 2, .supersample = 2});
  EXPECT_EQ(pb.y_samples, raster::kMaxRasterAxis);
}

TEST(Raster, ShardedEqualsMonolithic) {
  for (const Family f : {Family::Fbm, Family::TerraceBack}) {
    const Terrain t = gen(f, 14);
    HsrEngine mono;
    mono.prepare(t);
    const HsrResult r = mono.solve();
    const RasterOptions opt{.width = 80, .height = 60, .supersample = 2};
    const ImageRaster whole = raster::rasterize(t, r.map, opt);
    for (const u32 S : {2u, 5u}) {
      shard::ShardedEngine eng;
      eng.prepare(t, S);
      const auto per = eng.solve_slabs();
      std::vector<const VisibilityMap*> maps(per.size(), nullptr);
      for (std::size_t s = 0; s < per.size(); ++s) {
        if (per[s]) maps[s] = &per[s]->map;
      }
      const ImageRaster banded = raster::rasterize_sharded(eng.plan(), maps, opt);
      expect_images_equal(banded, whole,
                          (std::string(family_name(f)) + "/S" + std::to_string(S)).c_str());
      EXPECT_EQ(banded.crossings, whole.crossings);
    }
  }
}

TEST(Raster, ExplicitWindowAndBackground) {
  const Terrain t = gen(Family::Fbm, 10);
  const HsrResult r = hidden_surface_removal(t);
  // A window reaching above the terrain: the top rows must be pure
  // background, and hit pixels must carry triangle ids in range.
  raster::ImageWindow w = raster::default_window(t);
  w.z_hi += (w.z_hi - w.z_lo) * 2;  // even padding keeps the extent odd
  const ImageRaster img =
      raster::rasterize(t, r.map, {.width = 40, .height = 60, .window = w});
  for (u32 c = 0; c < img.width; ++c) {
    EXPECT_EQ(img.id_at(0, c), raster::kNoTriangle);
    EXPECT_EQ(img.coverage_at(0, c), 0.0f);
  }
  u64 hits = 0;
  for (u32 r2 = 0; r2 < img.height; ++r2) {
    for (u32 c = 0; c < img.width; ++c) {
      const u32 id = img.id_at(r2, c);
      if (id != raster::kNoTriangle) {
        EXPECT_LT(id, t.triangle_count());
        EXPECT_GT(img.coverage_at(r2, c), 0.0f);
        ++hits;
      }
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(img.hit_samples, hits);  // s=1: one sample per pixel
}

TEST(Raster, DefaultWindowHasOddExtents) {
  const Terrain t = gen(Family::Valley, 9);
  const raster::ImageWindow w = raster::default_window(t);
  EXPECT_EQ((w.y_hi - w.y_lo) % 2, 1);
  EXPECT_EQ((w.z_hi - w.z_lo) % 2, 1);
  const HsrResult r = hidden_surface_removal(t);
  const ImageRaster img = raster::rasterize(t, r.map);
  EXPECT_EQ(img.window.y_lo, w.y_lo);
  EXPECT_EQ(img.window.z_hi, w.z_hi);
}

TEST(Raster, SupersamplingProducesFractionalCoverage) {
  const Terrain t = gen(Family::Spikes, 10);
  const HsrResult r = hidden_surface_removal(t);
  const ImageRaster img =
      raster::rasterize(t, r.map, {.width = 48, .height = 36, .supersample = 4});
  bool fractional = false;
  for (const float c : img.coverage) {
    EXPECT_GE(c, 0.0f);
    EXPECT_LE(c, 1.0f);
    fractional = fractional || (c > 0.0f && c < 1.0f);
  }
  // Silhouette/T-vertex boundary pixels must show partial coverage.
  EXPECT_TRUE(fractional);
}

TEST(Raster, DepthGrowsTowardTheViewerDownEachColumn) {
  // Depth is the x of the visible point and the viewer sits at x = +inf:
  // the visible x at height z (max x whose profile reaches z) is
  // non-increasing in z, so walking *down* an image column (z falling)
  // depth must never decrease — nearer surface always shows lower.
  const Terrain t = gen(Family::TerraceBack, 10);
  const HsrResult r = hidden_surface_removal(t);
  const ImageRaster img = raster::rasterize(t, r.map, {.width = 48, .height = 64});
  for (u32 c = 0; c < img.width; ++c) {
    float prev = -std::numeric_limits<float>::infinity();  // top of the image: farthest
    for (u32 row = 0; row < img.height; ++row) {           // downward: z falls
      if (img.id_at(row, c) == raster::kNoTriangle) continue;
      EXPECT_GE(img.depth_at(row, c), prev - 1e-4f) << "column " << c << " row " << row;
      prev = img.depth_at(row, c);
    }
  }
}

// ---------------------------------------------------------------------------
// Viewshed grids
// ---------------------------------------------------------------------------

AscGrid demo_grid(bool with_hole) {
  AscGrid g;
  g.ncols = 16;
  g.nrows = 12;
  g.xll = 1000.0;
  g.yll = 2000.0;
  g.cellsize = 25.0;
  g.nodata = -9999.0;
  g.values.resize(std::size_t{g.ncols} * g.nrows);
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      double v = 5.0 * ((2 * r + 3 * c) % 7) + 1.5 * (g.nrows - r);
      if (with_hole && r >= 5 && r <= 7 && c >= 3 && c <= 5) v = *g.nodata;
      g.values[std::size_t{r} * g.ncols + c] = v;
    }
  }
  return g;
}

TEST(Viewshed, NodataPropagatesAndGeoreferencingMatches) {
  const AscGrid g = demo_grid(/*with_hole=*/true);
  AscMapping reg;
  const Terrain t = terrain_from_asc(g, {}, &reg);
  ASSERT_EQ(reg.stride, 1u);
  ASSERT_EQ(reg.rows, g.nrows);
  ASSERT_EQ(reg.cols, g.ncols);
  const HsrResult r = hidden_surface_removal(t);
  const AscGrid vs = raster::viewshed_grid(t, r.map, reg, {.nodata = -1.0});
  EXPECT_EQ(vs.ncols, g.ncols);
  EXPECT_EQ(vs.nrows, g.nrows);
  EXPECT_EQ(vs.xll, g.xll);
  EXPECT_EQ(vs.yll, g.yll);
  EXPECT_EQ(vs.cellsize, g.cellsize);
  ASSERT_TRUE(vs.nodata.has_value());
  EXPECT_EQ(*vs.nodata, -1.0);
  for (u32 r2 = 0; r2 < g.nrows; ++r2) {
    for (u32 c = 0; c < g.ncols; ++c) {
      const double v = vs.at(r2, c);
      if (g.is_nodata(r2, c)) {
        EXPECT_EQ(v, -1.0) << "hole sample (" << r2 << "," << c << ")";
      } else {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
  // The northernmost data row faces the viewer unobstructed: fully visible.
  for (u32 c = 0; c + 1 < g.ncols; ++c) EXPECT_GT(vs.at(0, c), 0.0);
}

TEST(Viewshed, BooleanGridIsThresholdOfFractional) {
  const AscGrid g = demo_grid(/*with_hole=*/false);
  AscMapping reg;
  const Terrain t = terrain_from_asc(g, {}, &reg);
  const HsrResult r = hidden_surface_removal(t);
  const AscGrid frac = raster::viewshed_grid(t, r.map, reg);
  const AscGrid boolean = raster::viewshed_grid(t, r.map, reg, {.boolean_grid = true});
  for (std::size_t i = 0; i < frac.values.size(); ++i) {
    EXPECT_EQ(boolean.values[i], frac.values[i] > 0.0 ? 1.0 : 0.0) << "sample " << i;
  }
}

TEST(Viewshed, ShardedBooleanGridMatchesMonolithic) {
  const AscGrid g = demo_grid(/*with_hole=*/true);
  AscMapping reg;
  const Terrain t = terrain_from_asc(g, {}, &reg);
  HsrEngine mono;
  mono.prepare(t);
  const HsrResult r = mono.solve();
  const AscGrid whole_b = raster::viewshed_grid(t, r.map, reg, {.boolean_grid = true});
  const AscGrid whole_f = raster::viewshed_grid(t, r.map, reg);
  shard::ShardedEngine eng;
  eng.prepare(t, 4);
  const HsrResult sharded = eng.solve();
  const AscGrid band_b = raster::viewshed_grid(t, sharded.map, reg, {.boolean_grid = true});
  const AscGrid band_f = raster::viewshed_grid(t, sharded.map, reg);
  EXPECT_EQ(band_b.values, whole_b.values);  // boolean: exact
  ASSERT_EQ(band_f.values.size(), whole_f.values.size());
  for (std::size_t i = 0; i < band_f.values.size(); ++i) {
    // Fractional: identical up to double accumulation over piece splits
    // at the slab cut lines.
    EXPECT_NEAR(band_f.values[i], whole_f.values[i], 1e-9) << "sample " << i;
  }
}

TEST(Viewshed, StridedMappingKeepsRegistration) {
  AscGrid g = demo_grid(/*with_hole=*/false);
  AscMapping reg;
  const Terrain t = terrain_from_asc(g, {.stride = 2}, &reg);
  EXPECT_EQ(reg.stride, 2u);
  EXPECT_EQ(reg.rows, (g.nrows - 1) / 2 + 1);
  EXPECT_EQ(reg.cols, (g.ncols - 1) / 2 + 1);
  EXPECT_EQ(reg.cellsize, g.cellsize * 2);
  // South edge shifts north by the source rows the stride drops.
  const double dropped = static_cast<double>(g.nrows - 1 - (reg.rows - 1) * 2);
  EXPECT_EQ(reg.yll, g.yll + dropped * g.cellsize);
  const HsrResult r = hidden_surface_removal(t);
  const AscGrid vs = raster::viewshed_grid(t, r.map, reg);
  EXPECT_EQ(vs.nrows, reg.rows);
  EXPECT_EQ(vs.ncols, reg.cols);
  // Strided grids hold the round-trip contract: the viewshed is loadable
  // as an .asc and comes back bit-identical.
  std::stringstream ss;
  save_asc_grid(vs, ss);
  const AscGrid back = load_asc_grid(ss);
  EXPECT_EQ(back.values, vs.values);
  EXPECT_EQ(back.cellsize, vs.cellsize);
}

}  // namespace
}  // namespace thsr

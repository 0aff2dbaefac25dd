/// Sharding contract (src/shard/, DESIGN.md section 1.7): the stitched
/// ShardedEngine map is piece-for-piece identical to the monolithic solve
/// after both are coalesced at the slab cut lines — for every generator
/// family x S in {1, 2, 7, 16}, all three algorithms, both phase-2
/// oracles, and every available backend; sharded counted work stays within
/// the plan's duplication bound; and the decomposition invariants (cut
/// coverage, edge maps, sliver ownership) hold on degenerate inputs:
/// slivers exactly on slab lines, empty slabs, more slabs than lattice
/// lines. Plus the ESRI ASCII-grid loader: parse errors, NODATA holes,
/// quantization, and save/load round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "shard/shard.hpp"
#include "shard/sharded_engine.hpp"
#include "terrain/asc_io.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

/// Stitched-vs-monolithic equality modulo coalescing at the cut lines (the
/// acceptance contract; first_difference is exact on piece intervals and
/// sliver verdicts including blocking provenance).
void expect_matches_monolithic(const Terrain& t, shard::ShardedEngine& engine,
                               const HsrOptions& opt, const std::string& label) {
  const HsrResult sharded = engine.solve(opt);
  const HsrResult mono = hidden_surface_removal(t, opt);
  const VisibilityMap canon = shard::coalesce_at_cuts(mono.map, engine.plan().cuts);
  const auto diff = canon.first_difference(sharded.map);
  EXPECT_FALSE(diff.has_value()) << label << ": stitched map differs at edge " << *diff;
  // first_difference skips per-piece endpoint provenance, so check the
  // stitch's edge-id translation directly: every piece endpoint must carry
  // the same kind and the same *source* profile-edge id as the monolithic
  // solve (the profile around any in-window point is identical in the
  // slab subproblem, so classifications agree; a dropped or wrong-table
  // remap would surface here as a slab-local id).
  if (!diff.has_value()) {
    for (u32 e = 0; e < canon.edge_slots(); ++e) {
      const auto want = canon.pieces(e), got = sharded.map.pieces(e);
      ASSERT_EQ(want.size(), got.size()) << label;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(want[i].k0 == got[i].k0 && want[i].other0 == got[i].other0 &&
                    want[i].k1 == got[i].k1 && want[i].other1 == got[i].other1)
            << label << ": provenance differs at edge " << e << " piece " << i;
      }
    }
  }
  EXPECT_EQ(sharded.stats.k_pieces, canon.k_pieces()) << label;
  EXPECT_EQ(sharded.stats.n_edges, mono.stats.n_edges) << label;
  EXPECT_EQ(sharded.stats.n_slivers, mono.stats.n_slivers) << label;
  // Work accounting: the sharded total is the sum of per-slab solves (each
  // including its slab's preparation) and must stay within the plan's edge
  // duplication bound of the monolithic work — the same gate bench_ci
  // enforces on the g48 workloads, here at tiny test grids.
  const double bound = engine.plan().duplication_factor() * shard::kShardWorkSlack;
  EXPECT_LE(static_cast<double>(sharded.stats.work.total()),
            bound * static_cast<double>(mono.stats.work.total()))
      << label << ": sharded work exceeds the duplication bound";
}

TEST(Shard, DecomposePlanInvariants) {
  const Terrain t = test::make_family_terrain(Family::Fbm, 12);
  for (const u32 S : {1u, 2u, 7u, 16u}) {
    const shard::ShardPlan plan = shard::decompose(t, S);
    ASSERT_EQ(plan.cuts.size(), S + 1u);
    ASSERT_EQ(plan.slabs.size(), S);
    EXPECT_EQ(plan.cuts.front(), t.min_y());
    EXPECT_EQ(plan.cuts.back(), t.max_y());
    for (u32 i = 0; i < S; ++i) {
      EXPECT_LE(plan.cuts[i], plan.cuts[i + 1]);
      const shard::SlabTerrain& slab = plan.slabs[i];
      EXPECT_EQ(slab.y_lo, plan.cuts[i]);
      EXPECT_EQ(slab.y_hi, plan.cuts[i + 1]);
      ASSERT_EQ(slab.global_edge.size(), slab.terrain.edge_count());
      for (u32 le = 0; le < slab.terrain.edge_count(); ++le) {
        // The edge map preserves geometry: slab edge == source edge.
        const Edge& l = slab.terrain.edges()[le];
        const Edge& g = t.edges()[slab.global_edge[le]];
        EXPECT_EQ(slab.terrain.vertex(l.a), t.vertex(g.a));
        EXPECT_EQ(slab.terrain.vertex(l.b), t.vertex(g.b));
      }
      // Every slab triangle's y-span meets the closed window …
      for (const Triangle& tr : slab.terrain.triangles()) {
        const i64 ya = slab.terrain.vertex(tr.a).y, yb = slab.terrain.vertex(tr.b).y,
                  yc = slab.terrain.vertex(tr.c).y;
        EXPECT_GE(std::max({ya, yb, yc}), slab.y_lo);
        EXPECT_LE(std::min({ya, yb, yc}), slab.y_hi);
      }
      // … and, completeness: every source edge whose y-span meets the
      // window is present in the slab (it can occlude or be visible there).
      std::vector<char> in_slab(t.edge_count(), 0);
      for (const u32 ge : slab.global_edge) in_slab[ge] = 1;
      for (u32 e = 0; e < t.edge_count(); ++e) {
        const Edge& ed = t.edges()[e];
        const i64 lo = std::min(t.vertex(ed.a).y, t.vertex(ed.b).y);
        const i64 hi = std::max(t.vertex(ed.a).y, t.vertex(ed.b).y);
        if (hi >= slab.y_lo && lo <= slab.y_hi) {
          EXPECT_TRUE(in_slab[e]) << "S=" << S << " slab " << i << " misses edge " << e;
        }
      }
    }
    EXPECT_GE(plan.duplication_factor(), 1.0);
    // S=1 is the degenerate plan: one slab covering everything, no
    // replication.
    if (S == 1) {
      EXPECT_EQ(plan.slab_edges_total, t.edge_count());
    }
  }
}

TEST(Shard, StitchMatchesMonolithicAcrossFamiliesAndSlabCounts) {
  for (const Family f : kAllFamilies) {
    const Terrain t = test::make_family_terrain(f, 12);
    for (const u32 S : {1u, 2u, 7u, 16u}) {
      shard::ShardedEngine engine;
      engine.prepare(t, S);
      expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Parallel},
                                std::string(family_name(f)) + "/S=" + std::to_string(S));
    }
  }
}

TEST(Shard, StitchMatchesMonolithicAcrossAlgorithmsAndOracles) {
  const Terrain t = test::make_family_terrain(Family::Fbm, 14, 3);
  shard::ShardedEngine engine;
  engine.prepare(t, 7);
  for (const HsrOptions opt : {HsrOptions{.algorithm = Algorithm::Reference},
                               HsrOptions{.algorithm = Algorithm::Sequential},
                               HsrOptions{.algorithm = Algorithm::Parallel},
                               HsrOptions{.algorithm = Algorithm::Parallel,
                                          .phase2_oracle = Phase2Oracle::MaterializedScan}}) {
    expect_matches_monolithic(t, engine, opt, std::string("fbm/") + algorithm_name(opt.algorithm));
  }
}

TEST(Shard, StitchMatchesMonolithicAcrossBackends) {
  const Terrain t = test::make_family_terrain(Family::TerraceBack, 12);
  shard::ShardedEngine engine;
  engine.prepare(t, 4);
  for (const par::Backend b : par::available_backends()) {
    const HsrOptions opt{.algorithm = Algorithm::Parallel, .threads = 2, .backend = b};
    expect_matches_monolithic(t, engine, opt,
                              std::string("backend ") + par::backend_name(b));
  }
}

TEST(Shard, RepeatedSolvesAreWarmAndIdentical) {
  const Terrain t = test::make_family_terrain(Family::Valley, 12);
  shard::ShardedEngine engine;
  engine.prepare(t, 4);
  const HsrOptions opt{.algorithm = Algorithm::Parallel};
  const HsrResult a = engine.solve(opt);
  const HsrResult b = engine.solve(opt);  // warm per-slab engines
  EXPECT_FALSE(a.map.first_difference(b.map).has_value());
  EXPECT_EQ(a.stats.work, b.stats.work);
}

// Unsheared lattices put every cross-row edge at dy == 0 (slivers), and the
// uniform cuts land exactly on lattice ordinates — so slab lines run
// through sliver edges and shared vertices: the boundary-ownership path.
TEST(Shard, SliverEdgesExactlyOnSlabLines) {
  const Terrain t = test::make_family_terrain(Family::Skyline, 12, 5, /*shear=*/false);
  ASSERT_TRUE([&] {
    for (u32 e = 0; e < t.edge_count(); ++e) {
      if (t.is_sliver(e)) return true;
    }
    return false;
  }()) << "unsheared grid should contain sliver edges";
  // Cuts at multiples of the lattice spacing: slab lines hit sliver rows.
  for (const u32 S : {2u, 7u, 11u}) {
    shard::ShardedEngine engine;
    engine.prepare(t, S);
    bool boundary_sliver = false;
    for (u32 e = 0; e < t.edge_count() && !boundary_sliver; ++e) {
      if (!t.is_sliver(e)) continue;
      const i64 y = t.sliver(e).y;
      for (const i64 c : engine.plan().cuts) boundary_sliver |= (y == c);
    }
    EXPECT_TRUE(boundary_sliver) << "S=" << S << ": no sliver landed on a cut (test too weak)";
    expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Parallel},
                              "skyline-unsheared/S=" + std::to_string(S));
    expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Reference},
                              "skyline-unsheared-ref/S=" + std::to_string(S));
  }
}

TEST(Shard, JitteredIrregularTin) {
  const Terrain t = test::make_family_terrain(Family::Fbm, 12, 9, /*shear=*/true, /*jitter=*/true);
  shard::ShardedEngine engine;
  engine.prepare(t, 7);
  expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Parallel}, "fbm-jitter/S=7");
}

// Two y-separated patches leave interior slabs with no triangles at all.
TEST(Shard, EmptySlabsFromYGap) {
  const Terrain base = test::make_family_terrain(Family::Spikes, 6);
  std::vector<Vertex3> verts(base.vertices().begin(), base.vertices().end());
  std::vector<Triangle> tris(base.triangles().begin(), base.triangles().end());
  const i64 shift_y = 4 * (base.max_y() - base.min_y());
  const i64 shift_x = 2 * 8 * 6;  // keep ground positions distinct
  const auto n0 = static_cast<u32>(verts.size());
  for (u32 i = 0; i < n0; ++i) {
    Vertex3 v = verts[i];
    v.x += shift_x;
    v.y += shift_y;
    verts.push_back(v);
  }
  for (u32 i = 0; i < base.triangle_count(); ++i) {
    const Triangle& tr = tris[i];
    tris.push_back({tr.a + n0, tr.b + n0, tr.c + n0});
  }
  const Terrain t = Terrain::from_triangles(std::move(verts), std::move(tris));

  shard::ShardedEngine engine;
  engine.prepare(t, 16);
  bool has_empty = false;
  for (const shard::SlabTerrain& slab : engine.plan().slabs) {
    has_empty |= slab.terrain.triangle_count() == 0;
  }
  EXPECT_TRUE(has_empty) << "the y-gap should leave at least one slab empty";
  expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Parallel}, "y-gap/S=16");
}

// More slabs than distinct lattice ordinates: repeated cuts, degenerate
// zero-width windows.
TEST(Shard, MoreSlabsThanLatticeLines) {
  const Terrain t = test::make_family_terrain(Family::Fbm, 3);
  ASSERT_LT(t.max_y() - t.min_y(), 10'000);
  shard::ShardedEngine engine;
  engine.prepare(t, 16);
  expect_matches_monolithic(t, engine, {.algorithm = Algorithm::Parallel}, "tiny/S=16");

  shard::ShardedEngine wide;
  wide.prepare(t, 1);
  expect_matches_monolithic(t, wide, {.algorithm = Algorithm::Sequential}, "tiny/S=1");
}

TEST(Shard, CoalesceAtCutsMergesOnlyCutJunctions) {
  VisibilityMap m(2);
  // Edge 0: two pieces split at the cut 10 — must merge.
  m.add_piece(0, {QY::of(0), QY::of(10), EndpointKind::SegmentEnd, EndpointKind::Break, kNoEdge,
                  kNoEdge});
  m.add_piece(0, {QY::of(10), QY::of(20), EndpointKind::Break, EndpointKind::Crossing, kNoEdge,
                  7});
  // Edge 1: abutting at a non-cut ordinate — must stay split.
  m.add_piece(1, {QY::of(0), QY::of(5), EndpointKind::SegmentEnd, EndpointKind::Break, kNoEdge,
                  kNoEdge});
  m.add_piece(1, {QY::of(5), QY::of(9), EndpointKind::Break, EndpointKind::SegmentEnd, kNoEdge,
                  kNoEdge});
  const i64 cuts[] = {0, 10, 20};
  const VisibilityMap out = shard::coalesce_at_cuts(m, cuts);
  ASSERT_EQ(out.pieces(0).size(), 1u);
  EXPECT_EQ(out.pieces(0)[0].y0, QY::of(0));
  EXPECT_EQ(out.pieces(0)[0].y1, QY::of(20));
  EXPECT_EQ(out.pieces(0)[0].k1, EndpointKind::Crossing);
  EXPECT_EQ(out.pieces(0)[0].other1, 7u);
  EXPECT_EQ(out.pieces(1).size(), 2u);
}

// A slab solve that throws on a pool worker must reach the caller as the
// same exception — an exception escaping a pool task ends the process.
TEST(Shard, SlabSolveErrorsReachTheCaller) {
  const Terrain t = make_terrain({.family = Family::Fbm, .grid = 12, .seed = 3});
  shard::ShardedEngine engine;
  engine.prepare(t, 4);
  HsrOptions opt{.algorithm = Algorithm::Parallel, .threads = 4, .backend = par::Backend::Pool};
  opt.pixel_budget = PixelBudget{5, 5, 8};  // empty window: rejected by every slab solve
  EXPECT_THROW((void)engine.solve(opt), std::invalid_argument);
}

TEST(Shard, ZeroSlabsRejected) {
  const Terrain t = make_terrain({.family = Family::Fbm, .grid = 8, .seed = 3});
  EXPECT_THROW((void)shard::decompose(t, 0), std::invalid_argument);
  shard::ShardedEngine engine;
  EXPECT_THROW(engine.prepare(t, 0), std::invalid_argument);
  EXPECT_FALSE(engine.prepared());
}

TEST(Shard, SolveRequiresPrepare) {
  shard::ShardedEngine engine;
  EXPECT_FALSE(engine.prepared());
  EXPECT_THROW((void)engine.solve(), std::logic_error);
  EXPECT_THROW((void)engine.solve_slabs(), std::logic_error);
  EXPECT_THROW((void)engine.plan(), std::logic_error);
}

// ---------------------------------------------------------------------------
// asc_io: the ESRI ASCII-grid ingestion path.

const char kSmallAsc[] =
    "ncols 4\n"
    "nrows 3\n"
    "xllcorner 100.0\n"
    "yllcorner 200.0\n"
    "cellsize 30.0\n"
    "NODATA_value -9999\n"
    "1 2 3 4\n"
    "5 6 7 8\n"
    "9 10 11 12\n";

TEST(AscIo, ParsesHeaderAndValues) {
  std::istringstream is(kSmallAsc);
  const AscGrid g = load_asc_grid(is);
  EXPECT_EQ(g.ncols, 4u);
  EXPECT_EQ(g.nrows, 3u);
  EXPECT_EQ(g.xll, 100.0);
  EXPECT_EQ(g.yll, 200.0);
  EXPECT_EQ(g.cellsize, 30.0);
  ASSERT_TRUE(g.nodata.has_value());
  EXPECT_EQ(*g.nodata, -9999.0);
  ASSERT_EQ(g.values.size(), 12u);
  EXPECT_EQ(g.at(0, 0), 1.0);   // row 0 = north
  EXPECT_EQ(g.at(2, 3), 12.0);
  EXPECT_FALSE(g.is_nodata(1, 1));
}

TEST(AscIo, RoundTripsThroughSave) {
  std::istringstream is(kSmallAsc);
  AscGrid g = load_asc_grid(is);
  g.values[5] = -9999;  // engage the nodata path too
  std::ostringstream os;
  save_asc_grid(g, os);
  std::istringstream back(os.str());
  const AscGrid h = load_asc_grid(back);
  EXPECT_EQ(h.ncols, g.ncols);
  EXPECT_EQ(h.nrows, g.nrows);
  EXPECT_EQ(h.xll, g.xll);
  EXPECT_EQ(h.yll, g.yll);
  EXPECT_EQ(h.cellsize, g.cellsize);
  EXPECT_EQ(h.nodata, g.nodata);
  EXPECT_EQ(h.values, g.values);
  EXPECT_TRUE(h.is_nodata(1, 1));
}

TEST(AscIo, ParseErrors) {
  const auto expect_throw = [](const std::string& text, const char* label) {
    std::istringstream is(text);
    EXPECT_THROW((void)load_asc_grid(is), std::runtime_error) << label;
  };
  expect_throw("nrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n", "missing ncols");
  expect_throw("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\n1 2\n3 4\n", "missing cellsize");
  expect_throw("ncols 2\nnrows 2\nncols 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n",
               "duplicate key");
  expect_throw("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0\n1 2\n3 4\n",
               "non-positive cellsize");
  expect_throw("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3\n", "short data");
  expect_throw("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 oops\n",
               "non-numeric data");
  expect_throw("ncols x\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n",
               "non-numeric header");
  expect_throw("frobnicate 3\nncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n",
               "unknown key");
  expect_throw("ncols 2\nnrows 2\nxllcorner 0\nyllcenter 0\ncellsize 1\n1 2\n3 4\n",
               "mixed corner/center origin keys");
  // A hostile header must fail as a parse error before the sample buffer
  // is allocated, not as bad_alloc.
  expect_throw("ncols 1000000000\nnrows 1000000000\nxllcorner 0\nyllcorner 0\ncellsize 1\n",
               "samples over the loader cap");
}

TEST(AscIo, CellCenteredRoundTrip) {
  std::istringstream is(
      "ncols 2\nnrows 2\nxllcenter 15.0\nyllcenter 25.0\ncellsize 30\n1 2\n3 4\n");
  const AscGrid g = load_asc_grid(is);
  EXPECT_TRUE(g.cell_centered);
  std::ostringstream os;
  save_asc_grid(g, os);
  EXPECT_NE(os.str().find("xllcenter"), std::string::npos);
  EXPECT_NE(os.str().find("yllcenter"), std::string::npos);
  std::istringstream back(os.str());
  EXPECT_TRUE(load_asc_grid(back).cell_centered);
}

TEST(AscIo, TerrainQuantizationAndShear) {
  std::istringstream is(kSmallAsc);
  const AscGrid g = load_asc_grid(is);
  const Terrain t = terrain_from_asc(g, {.z_scale = 2.0});
  EXPECT_EQ(t.vertex_count(), 12u);
  EXPECT_EQ(t.triangle_count(), 12u);  // (nrows-1)*(ncols-1) cells, 2 triangles each
  // normalize_z subtracts the min (1.0); z = round((v - 1) * 2).
  i64 zmin = t.vertex(0).z, zmax = zmin;
  for (u32 i = 0; i < t.vertex_count(); ++i) {
    zmin = std::min(zmin, t.vertex(i).z);
    zmax = std::max(zmax, t.vertex(i).z);
  }
  EXPECT_EQ(zmin, 0);
  EXPECT_EQ(zmax, 22);  // (12 - 1) * 2
  // Sheared lattice: no sliver edges, ready for all three algorithms.
  for (u32 e = 0; e < t.edge_count(); ++e) EXPECT_FALSE(t.is_sliver(e));
  EXPECT_TRUE(t.projections_planar());
}

TEST(AscIo, NodataCellsBecomeHoles) {
  std::istringstream is(kSmallAsc);
  AscGrid g = load_asc_grid(is);
  const Terrain full = terrain_from_asc(g);
  g.values[g.ncols + 1] = *g.nodata;  // knock out interior sample (1,1)
  const Terrain holey = terrain_from_asc(g);
  // (1,1) corners 4 of the 6 cells; the 2 surviving cells keep 6 vertices
  // (orphaned corners are dropped with their cells).
  EXPECT_EQ(holey.triangle_count(), 4u);
  EXPECT_EQ(holey.vertex_count(), 6u);
  // The holey terrain still solves, and all three algorithms agree on it.
  const HsrResult p = hidden_surface_removal(holey, {.algorithm = Algorithm::Parallel});
  const HsrResult r = hidden_surface_removal(holey, {.algorithm = Algorithm::Reference});
  EXPECT_FALSE(p.map.first_difference(r.map).has_value());
  EXPECT_GT(p.stats.k_pieces, 0u);
}

TEST(AscIo, AllNodataFails) {
  std::istringstream is(
      "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nNODATA_value -1\n-1 -1\n-1 -1\n");
  const AscGrid g = load_asc_grid(is);
  EXPECT_THROW((void)terrain_from_asc(g), std::runtime_error);
}

TEST(AscIo, OutOfRangeHeightFails) {
  std::istringstream is(kSmallAsc);
  const AscGrid g = load_asc_grid(is);
  EXPECT_THROW((void)terrain_from_asc(g, {.z_scale = 1e9}), std::runtime_error);
}

TEST(AscIo, StrideDownsamplesLargeGrids) {
  AscGrid g;
  g.ncols = 2 * kMaxAscGrid;  // auto stride must kick in
  g.nrows = 5;
  g.cellsize = 1.0;
  g.values.assign(static_cast<std::size_t>(g.ncols) * g.nrows, 0.0);
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) g.values[static_cast<std::size_t>(r) * g.ncols + c] = r + c;
  }
  const Terrain t = terrain_from_asc(g);
  EXPECT_LE(t.vertex_count(), static_cast<std::size_t>(kMaxAscGrid) * g.nrows);
  EXPECT_GT(t.triangle_count(), 0u);
  // Explicit coarser stride (applies to both axes; must leave >= 2 rows).
  const Terrain coarse = terrain_from_asc(g, {.stride = 4});
  EXPECT_LT(coarse.vertex_count(), t.vertex_count());
  // A stride wiping out an axis is a loader error, not a crash.
  EXPECT_THROW((void)terrain_from_asc(g, {.stride = 100}), std::runtime_error);
}

TEST(AscIo, LoadedDemSolvesAndShards) {
  // A deterministic synthetic "DEM": save a wavy grid to .asc text, load it
  // back, and run the sharded vs monolithic contract on the result.
  AscGrid g;
  g.ncols = 24;
  g.nrows = 20;
  g.cellsize = 10.0;
  g.nodata = -9999.0;
  g.values.resize(static_cast<std::size_t>(g.ncols) * g.nrows);
  for (u32 r = 0; r < g.nrows; ++r) {
    for (u32 c = 0; c < g.ncols; ++c) {
      const double v = 40.0 * std::sin(0.4 * r) * std::cos(0.3 * c) + 3.0 * r;
      g.values[static_cast<std::size_t>(r) * g.ncols + c] = (r == 7 && c == 9) ? -9999.0 : v;
    }
  }
  std::ostringstream os;
  save_asc_grid(g, os);
  std::istringstream is(os.str());
  const Terrain t = load_asc(is, {.z_scale = 1.0});
  EXPECT_GT(t.edge_count(), 100u);

  shard::ShardedEngine engine;
  engine.prepare(t, 7);
  const HsrResult sharded = engine.solve({.algorithm = Algorithm::Parallel});
  const HsrResult mono = hidden_surface_removal(t, {.algorithm = Algorithm::Parallel});
  const VisibilityMap canon = shard::coalesce_at_cuts(mono.map, engine.plan().cuts);
  EXPECT_FALSE(canon.first_difference(sharded.map).has_value());
}

}  // namespace
}  // namespace thsr

/// Depth-order tests: the front-to-back order must be a linear extension
/// of the occlusion partial order (validated exhaustively against the
/// O(n^2) pairwise checker) on every family, sheared and not, and the
/// triangle-local order must equal the full sweep's exactly — across
/// families, jitter, rotations, shard slabs, NODATA DEMs and stream windows.

#include <gtest/gtest.h>

#include <random>
#include <span>

#include "separator/depth_order.hpp"
#include "separator/separator_tree.hpp"
#include "shard/shard.hpp"
#include "stream/dem_lattice.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

struct OrderCase {
  Family family;
  bool shear;
  u64 seed;
};

class OrderP : public ::testing::TestWithParam<OrderCase> {};

TEST_P(OrderP, IsValidLinearExtension) {
  GenOptions opt;
  opt.family = GetParam().family;
  opt.grid = 10;
  opt.seed = GetParam().seed;
  opt.shear = GetParam().shear;
  const Terrain t = make_terrain(opt);
  const DepthOrder d = compute_depth_order(t);
  ASSERT_EQ(d.order.size(), t.edge_count());
  // Permutation check.
  std::vector<bool> seen(t.edge_count(), false);
  for (u32 e : d.order) {
    ASSERT_LT(e, t.edge_count());
    ASSERT_FALSE(seen[e]);
    seen[e] = true;
  }
  // rank is the inverse permutation.
  for (u32 r = 0; r < d.order.size(); ++r) EXPECT_EQ(d.rank[d.order[r]], r);
  EXPECT_TRUE(validate_depth_order(t, d.order));
  EXPECT_GT(d.constraints, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Families, OrderP,
    ::testing::Values(OrderCase{Family::Fbm, true, 1}, OrderCase{Family::Fbm, false, 1},
                      OrderCase{Family::RidgeFront, true, 2},
                      OrderCase{Family::RidgeFront, false, 2},
                      OrderCase{Family::TerraceBack, true, 3},
                      OrderCase{Family::Spikes, true, 4}, OrderCase{Family::Spikes, false, 4},
                      OrderCase{Family::Valley, true, 5}, OrderCase{Family::Skyline, true, 6},
                      OrderCase{Family::Skyline, false, 6}),
    [](const auto& info) {
      return std::string(family_name(info.param.family)) +
             (info.param.shear ? "_shear" : "_grid") + "_s" + std::to_string(info.param.seed);
    });

TEST(Order, DeterministicAcrossRuns) {
  GenOptions opt;
  opt.family = Family::Fbm;
  opt.grid = 14;
  const Terrain t = make_terrain(opt);
  const DepthOrder a = compute_depth_order(t), b = compute_depth_order(t);
  EXPECT_EQ(a.order, b.order);
}

TEST(Order, FrontRowComesEarly) {
  // In terrace_back the front (large-x) rows strictly dominate those behind;
  // the front boundary column edges must all precede the back boundary ones.
  GenOptions opt;
  opt.family = Family::TerraceBack;
  opt.grid = 8;
  const Terrain t = make_terrain(opt);
  const DepthOrder d = compute_depth_order(t);
  u64 front_sum = 0, front_n = 0, back_sum = 0, back_n = 0;
  for (u32 e = 0; e < t.edge_count(); ++e) {
    const Edge& ed = t.edges()[e];
    const i64 x1 = t.vertex(ed.a).x, x2 = t.vertex(ed.b).x;
    if (std::min(x1, x2) >= 8 * 6) {
      front_sum += d.rank[e];
      ++front_n;
    } else if (std::max(x1, x2) <= 8) {
      back_sum += d.rank[e];
      ++back_n;
    }
  }
  ASSERT_GT(front_n, 0u);
  ASSERT_GT(back_n, 0u);
  EXPECT_LT(front_sum / front_n, back_sum / back_n);
}

// ---------------------------------------------------------------------------
// compute_depth_order == sweep_depth_order (the full sweep is the oracle)

void expect_same_as_sweep(const Terrain& t) {
  const DepthOrder got = compute_depth_order(t), want = sweep_depth_order(t);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.rank, want.rank);
}

TEST(OrderEqualsSweep, FamiliesJitterAndSeeds) {
  for (const Family f : kAllFamilies) {
    for (const bool jitter : {false, true}) {
      for (const u64 seed : {1ull, 2ull, 3ull}) {
        const u32 grid = 16 + 24 * static_cast<u32>(seed - 1);  // g16, g40, g64
        SCOPED_TRACE(::testing::Message() << family_name(f) << " g" << grid << " j" << jitter);
        expect_same_as_sweep(
            make_terrain({.family = f, .grid = grid, .seed = seed, .jitter = jitter}));
      }
    }
  }
}

TEST(OrderEqualsSweep, Rotations) {
  for (const bool jitter : {false, true}) {
    const Terrain t =
        make_terrain({.family = Family::Fbm, .grid = 24, .seed = 7, .jitter = jitter});
    for (const auto& [a, b] : {std::pair<i64, i64>{3, 4}, {-3, 4}, {5, -12}, {0, 1}, {-1, 0}}) {
      SCOPED_TRACE(::testing::Message() << "rotation " << a << "," << b << " j" << jitter);
      expect_same_as_sweep(t.rotate_ground(a, b));
    }
  }
}

TEST(OrderEqualsSweep, ShardSlabs) {
  for (const Family f : {Family::Fbm, Family::Spikes, Family::Skyline}) {
    const Terrain t = make_terrain({.family = f, .grid = 24, .seed = 5, .jitter = true});
    for (const u32 slabs : {2u, 5u}) {
      const shard::ShardPlan plan = shard::decompose(t, slabs);
      for (u32 s = 0; s < slabs; ++s) {
        SCOPED_TRACE(::testing::Message() << family_name(f) << " S" << slabs << " slab " << s);
        expect_same_as_sweep(plan.slabs[s].terrain);
      }
    }
  }
}

TEST(OrderEqualsSweep, NodataGridsWholeAndAsStreamWindows) {
  constexpr double kNodata = -9999.0;
  for (const double holes : {0.0, 0.05, 0.12, 0.25}) {
    for (const u64 seed : {11ull, 12ull}) {
      std::mt19937_64 rng(seed);
      std::uniform_real_distribution<double> u01(0.0, 1.0);
      const u32 cols = 12 + static_cast<u32>(rng() % 20);
      const u32 rows = 12 + static_cast<u32>(rng() % 20);
      std::vector<double> values(std::size_t{rows} * cols);
      for (double& v : values) v = u01(rng) < holes ? kNodata : 40.0 * u01(rng);
      SCOPED_TRACE(::testing::Message() << "holes " << holes << " seed " << seed);
      const stream::SlabBuild whole = stream::build_rows(cols, 0, rows, values, kNodata, 0);
      if (!whole.empty()) {
        expect_same_as_sweep(whole.terrain);
        // The lattice's y runs along DEM rows; oblique turns put the
        // holes across other viewing directions.
        expect_same_as_sweep(whole.terrain.rotate_ground(4, 3));
        expect_same_as_sweep(whole.terrain.rotate_ground(3, -4));
      }
      for (u32 lo = 0; lo + 8 <= rows; lo += 6) {  // 8-row windows sharing 2 rows
        SCOPED_TRACE(::testing::Message() << "window at row " << lo);
        const std::span<const double> window(values.data() + std::size_t{lo} * cols,
                                             std::size_t{8} * cols);
        const stream::SlabBuild w = stream::build_rows(cols, lo, lo + 8, window, kNodata, 0);
        if (!w.empty()) expect_same_as_sweep(w.terrain);
      }
    }
  }
}

// Unsheared lattices have sliver edges: compute_depth_order takes the full
// sweep, whose order must still be a valid linear extension.
TEST(OrderEqualsSweep, UnshearedGridsUseTheSweep) {
  for (const Family f : kAllFamilies) {
    SCOPED_TRACE(family_name(f));
    const Terrain t = make_terrain({.family = f, .grid = 12, .seed = 9, .shear = false});
    expect_same_as_sweep(t);
    EXPECT_TRUE(validate_depth_order(t, compute_depth_order(t).order));
  }
}

// Without slivers, the sort consumes two arcs per face plus the boundary
// sweep's, less those a face already gave (two sides of one face).
TEST(Order, ConstraintsCountDistinctTriangleAndBoundaryArcs) {
  // One face: all three sides are boundary edges, and the sweep's two
  // arcs are the face's own.
  const Terrain tri = Terrain::from_triangles({{0, 0, 0}, {4, 1, 0}, {1, 5, 0}}, {{0, 1, 2}});
  EXPECT_EQ(compute_depth_order(tri).constraints, 2u);
  EXPECT_EQ(sweep_depth_order(tri).constraints, 2u);
  // A sheared g-grid has 2(g-1)^2 faces; the boundary sweep orders the
  // 2(g-1) front outline edges against the 2(g-1) back ones: 4(g-1) - 1
  // arcs (g96: 36,100 + 379).
  for (const u32 g : {16u, 96u}) {
    const Terrain t = make_terrain({.family = Family::Fbm, .grid = g, .seed = 1});
    EXPECT_EQ(compute_depth_order(t).constraints, 2 * t.triangle_count() + 4 * (g - 1) - 1);
  }
}

TEST(SeparatorTree, StructureInvariants) {
  for (const u32 n : {1u, 2u, 3u, 7u, 8u, 100u, 1023u}) {
    const SeparatorTree t(n);
    EXPECT_EQ(t.node(t.root()).lo, 0u);
    EXPECT_EQ(t.node(t.root()).hi, n);
    // Every layer partitions a prefix of the ranges; leaves cover [0, n).
    u64 leaves = 0;
    for (u32 v = 0; v < t.size(); ++v) {
      const PctNode& nd = t.node(v);
      if (nd.leaf()) {
        ++leaves;
        EXPECT_EQ(nd.hi - nd.lo, 1u);
      } else {
        const PctNode &l = t.node(nd.left), &r = t.node(nd.right);
        EXPECT_EQ(l.lo, nd.lo);
        EXPECT_EQ(l.hi, r.lo);
        EXPECT_EQ(r.hi, nd.hi);
      }
    }
    EXPECT_EQ(leaves, n);
    EXPECT_EQ(t.size(), 2 * n - 1);
    EXPECT_LE(t.levels(), 2 + static_cast<u32>(std::ceil(std::log2(std::max(2u, n)))));
  }
}

}  // namespace
}  // namespace thsr

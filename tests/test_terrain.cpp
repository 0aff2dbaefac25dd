/// Terrain model and generator tests: structural validity, determinism,
/// family shape properties, and OBJ round-trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "stream/dem_lattice.hpp"
#include "terrain/generators.hpp"
#include "terrain/obj_io.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

TEST(Terrain, FromTrianglesBuildsUniqueEdges) {
  // Two triangles sharing an edge: 5 unique edges.
  std::vector<Vertex3> v{{0, 0, 1}, {4, 0, 2}, {0, 4, 3}, {4, 4, 4}};
  std::vector<Triangle> tr{{0, 1, 2}, {1, 3, 2}};
  const Terrain t = Terrain::from_triangles(v, tr);
  EXPECT_EQ(t.vertex_count(), 4u);
  EXPECT_EQ(t.triangle_count(), 2u);
  EXPECT_EQ(t.edge_count(), 5u);
  EXPECT_TRUE(t.projections_planar());
}

TEST(Terrain, RejectsDuplicateGroundPositions) {
  std::vector<Vertex3> v{{0, 0, 1}, {4, 0, 2}, {0, 4, 3}, {0, 0, 9}};
  std::vector<Triangle> tr{{0, 1, 2}, {3, 1, 2}};
  EXPECT_THROW(Terrain::from_triangles(v, tr), std::invalid_argument);
}

TEST(Terrain, RejectsOutOfRangeCoordinates) {
  std::vector<Vertex3> v{{0, 0, kMaxCoord + 1}, {4, 0, 2}, {0, 4, 3}};
  std::vector<Triangle> tr{{0, 1, 2}};
  EXPECT_THROW(Terrain::from_triangles(v, tr), std::invalid_argument);
}

TEST(Terrain, RejectsMalformedFaces) {
  const std::vector<Vertex3> v{{0, 0, 1}, {4, 0, 2}, {0, 4, 3}, {0, -4, 4}, {2, 8, 5}, {8, 0, 6}};
  const auto build = [&](std::vector<Triangle> tr) { return Terrain::from_triangles(v, tr); };
  EXPECT_THROW(build({{0, 1, 6}}), std::invalid_argument);  // index out of range
  EXPECT_THROW(build({{0, 1, 0}}), std::invalid_argument);  // repeated index
  EXPECT_THROW(build({{0, 1, 5}}), std::invalid_argument);  // ground-collinear
  EXPECT_THROW(build({{0, 1, 2}, {0, 1, 3}, {0, 1, 4}}), std::invalid_argument);  // 3 faces
  EXPECT_NO_THROW(build({{0, 1, 2}, {0, 1, 3}}));
}

TEST(Terrain, RejectsZeroRotation) {
  const Terrain t = make_terrain({.grid = 4});
  EXPECT_THROW((void)t.rotate_ground(0, 0), std::invalid_argument);
}

TEST(Generators, RejectsGridOutsideRange) {
  for (const u32 grid : {0u, 1u, 181u}) {
    EXPECT_THROW((void)make_terrain({.grid = grid}), std::invalid_argument) << grid;
  }
  EXPECT_NO_THROW((void)make_terrain({.grid = 2}));
  EXPECT_THROW((void)make_terrain({.grid = 4, .amplitude = kMaxCoord + 1}), std::invalid_argument);
}

/// edges() must be exactly sort+unique of every face's sides, and
/// tri_edges(ti)[k] must name side k of face ti.
void expect_edge_tables_consistent(const Terrain& t, const std::string& label) {
  const auto mk = [](u32 p, u32 q) { return Edge{std::min(p, q), std::max(p, q)}; };
  std::vector<Edge> sides;
  for (const Triangle& tr : t.triangles()) {
    sides.push_back(mk(tr.a, tr.b));
    sides.push_back(mk(tr.b, tr.c));
    sides.push_back(mk(tr.a, tr.c));
  }
  std::sort(sides.begin(), sides.end());
  sides.erase(std::unique(sides.begin(), sides.end()), sides.end());
  ASSERT_TRUE(std::ranges::equal(t.edges(), sides)) << label;
  for (u32 ti = 0; ti < t.triangle_count(); ++ti) {
    const Triangle& tr = t.triangles()[ti];
    const Terrain::TriEdges& te = t.tri_edges(ti);
    EXPECT_EQ(t.edges()[te[0]], mk(tr.a, tr.b)) << label << " face " << ti;
    EXPECT_EQ(t.edges()[te[1]], mk(tr.b, tr.c)) << label << " face " << ti;
    EXPECT_EQ(t.edges()[te[2]], mk(tr.a, tr.c)) << label << " face " << ti;
  }
}

TEST(Terrain, EdgeTablesMatchFaceSides) {
  for (const Family f : kAllFamilies) {
    for (const bool shear : {true, false}) {
      const Terrain t =
          make_terrain({.family = f, .grid = 9, .seed = 4, .shear = shear, .jitter = shear});
      expect_edge_tables_consistent(t, family_name(f));
      expect_edge_tables_consistent(t.rotate_ground(3, 4), "rotated");
    }
  }
  const AscGrid g = test::make_asc_grid(14, 11, test::GridFamily::Holes, 3);
  expect_edge_tables_consistent(stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata),
                                "holed DEM");
}

TEST(Terrain, FootprintCountsTheFourTables) {
  const Terrain t = make_terrain({.grid = 8});
  ASSERT_EQ(t.vertex_count(), 64u);
  ASSERT_EQ(t.triangle_count(), 98u);
  ASSERT_EQ(t.edge_count(), 161u);
  EXPECT_EQ(sizeof(Vertex3), 24u);
  EXPECT_EQ(sizeof(Triangle), 12u);
  EXPECT_EQ(sizeof(Edge), 8u);
  EXPECT_EQ(sizeof(Terrain::TriEdges), 12u);
  EXPECT_EQ(t.footprint_bytes(), 64u * 24 + 98u * 12 + 161u * 8 + 98u * 12);
}

TEST(Terrain, ImageAndGroundSegments) {
  std::vector<Vertex3> v{{0, 0, 1}, {4, 8, 2}, {0, 4, 3}};
  std::vector<Triangle> tr{{0, 1, 2}};
  const Terrain t = Terrain::from_triangles(v, tr);
  for (u32 e = 0; e < t.edge_count(); ++e) {
    ASSERT_FALSE(t.is_sliver(e));
    const Seg2 img = t.image_segment(e), gnd = t.ground_segment(e);
    EXPECT_LT(img.u0, img.u1);
    EXPECT_EQ(img.u0, gnd.u0);  // both parameterized by y
    EXPECT_EQ(img.u1, gnd.u1);
  }
}

TEST(Terrain, SliverDetection) {
  std::vector<Vertex3> v{{0, 0, 1}, {4, 0, 5}, {0, 4, 3}};  // edge 0-1 has dy=0
  std::vector<Triangle> tr{{0, 1, 2}};
  const Terrain t = Terrain::from_triangles(v, tr);
  int slivers = 0;
  for (u32 e = 0; e < t.edge_count(); ++e) {
    if (t.is_sliver(e)) {
      ++slivers;
      const SliverInfo s = t.sliver(e);
      EXPECT_EQ(s.y, 0);
      EXPECT_EQ(s.x_lo, 0);
      EXPECT_EQ(s.x_hi, 4);
      EXPECT_EQ(s.z_lo, 1);
      EXPECT_EQ(s.z_hi, 5);
    }
  }
  EXPECT_EQ(slivers, 1);
}

class GeneratorP : public ::testing::TestWithParam<Family> {};

TEST_P(GeneratorP, ProducesValidShearedTerrain) {
  GenOptions opt;
  opt.family = GetParam();
  opt.grid = 12;
  opt.seed = 3;
  const Terrain t = make_terrain(opt);
  EXPECT_EQ(t.vertex_count(), 144u);
  EXPECT_EQ(t.triangle_count(), 2u * 11 * 11);
  EXPECT_TRUE(t.projections_planar());
  for (u32 e = 0; e < t.edge_count(); ++e) {
    EXPECT_FALSE(t.is_sliver(e)) << "sheared lattice must have no sliver edges";
  }
}

TEST_P(GeneratorP, UnshearedGridHasSlivers) {
  GenOptions opt;
  opt.family = GetParam();
  opt.grid = 8;
  opt.shear = false;
  const Terrain t = make_terrain(opt);
  u64 slivers = 0;
  for (u32 e = 0; e < t.edge_count(); ++e) slivers += t.is_sliver(e);
  EXPECT_EQ(slivers, 8u * 7u);  // one x-row edge per cell-row and column line
  EXPECT_TRUE(t.projections_planar());
}

TEST_P(GeneratorP, DeterministicInSeed) {
  GenOptions opt;
  opt.family = GetParam();
  opt.grid = 10;
  opt.seed = 42;
  const Terrain a = make_terrain(opt), b = make_terrain(opt);
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (u32 i = 0; i < a.vertex_count(); ++i) EXPECT_EQ(a.vertex(i), b.vertex(i));
  opt.seed = 43;
  const Terrain c = make_terrain(opt);
  if (GetParam() != Family::TerraceBack) {  // terrace is nearly seed-free by design
    bool differs = false;
    for (u32 i = 0; i < a.vertex_count() && !differs; ++i) differs = !(a.vertex(i) == c.vertex(i));
    EXPECT_TRUE(differs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, GeneratorP, ::testing::ValuesIn(kAllFamilies),
                         [](const auto& info) { return family_name(info.param); });

TEST(Generators, FamilyNamesRoundTrip) {
  for (Family f : kAllFamilies) EXPECT_EQ(family_from_name(family_name(f)), f);
  EXPECT_THROW(family_from_name("nope"), std::invalid_argument);
}

TEST(ObjIo, RoundTrip) {
  GenOptions opt;
  opt.family = Family::Fbm;
  opt.grid = 6;
  const Terrain t = make_terrain(opt);
  std::stringstream ss;
  save_obj(t, ss);
  const Terrain u = load_obj(ss);
  ASSERT_EQ(u.vertex_count(), t.vertex_count());
  ASSERT_EQ(u.triangle_count(), t.triangle_count());
  ASSERT_EQ(u.edge_count(), t.edge_count());
  for (u32 i = 0; i < t.vertex_count(); ++i) EXPECT_EQ(u.vertex(i), t.vertex(i));
}

TEST(ObjIo, QuantizesWithScale) {
  std::stringstream ss;
  ss << "v 0.1 0.2 0.3\nv 1.0 0 0\nv 0 1.0 0.5\nf 1 2 3\n";
  const Terrain t = load_obj(ss, 10.0);
  EXPECT_EQ(t.vertex(0).x, 1);
  EXPECT_EQ(t.vertex(0).y, 2);
  EXPECT_EQ(t.vertex(0).z, 3);
}

TEST(Terrain, JitteredTerrainsStayValid) {
  for (const bool shear : {true, false}) {
    for (const u64 seed : {1ull, 2ull, 3ull}) {
      GenOptions opt;
      opt.family = Family::Fbm;
      opt.grid = 10;
      opt.seed = seed;
      opt.shear = shear;
      opt.jitter = true;
      const Terrain t = make_terrain(opt);  // from_triangles validates z=f(x,y) + orientations
      EXPECT_TRUE(t.projections_planar()) << "shear=" << shear << " seed=" << seed;
      const Terrain again = make_terrain(opt);
      for (u32 i = 0; i < t.vertex_count(); ++i) EXPECT_EQ(t.vertex(i), again.vertex(i));
    }
  }
}

TEST(Terrain, JitterActuallyPerturbs) {
  GenOptions opt;
  opt.grid = 10;
  const Terrain plain = make_terrain(opt);
  opt.jitter = true;
  const Terrain jit = make_terrain(opt);
  bool moved = false;
  for (u32 i = 0; i < plain.vertex_count() && !moved; ++i) {
    moved = !(plain.vertex(i) == jit.vertex(i));
  }
  EXPECT_TRUE(moved);
}

TEST(Terrain, RotateGroundPreservesStructure) {
  GenOptions opt;
  opt.family = Family::Fbm;
  opt.grid = 8;
  const Terrain t = make_terrain(opt);
  const Terrain r = t.rotate_ground(3, 4);  // exact 53.13-degree azimuth
  EXPECT_EQ(r.vertex_count(), t.vertex_count());
  EXPECT_EQ(r.triangle_count(), t.triangle_count());
  EXPECT_EQ(r.edge_count(), t.edge_count());
  EXPECT_TRUE(r.projections_planar());
  for (u32 i = 0; i < t.vertex_count(); ++i) {
    EXPECT_EQ(r.vertex(i).z, t.vertex(i).z);  // heights untouched
    const Vertex3 &o = t.vertex(i), &n = r.vertex(i);
    EXPECT_EQ(n.x, 3 * o.x - 4 * o.y);
    EXPECT_EQ(n.y, 4 * o.x + 3 * o.y);
  }
}

TEST(Terrain, RotateGroundIdentity) {
  GenOptions opt;
  opt.grid = 5;
  const Terrain t = make_terrain(opt);
  const Terrain r = t.rotate_ground(1, 0);
  for (u32 i = 0; i < t.vertex_count(); ++i) EXPECT_EQ(r.vertex(i), t.vertex(i));
}

TEST(Terrain, RotateGroundBoundsChecked) {
  GenOptions opt;
  opt.grid = 64;
  const Terrain t = make_terrain(opt);
  EXPECT_THROW(t.rotate_ground(4000, 3000), std::invalid_argument);
}

TEST(ObjIo, RejectsQuads) {
  std::stringstream ss;
  ss << "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n";
  EXPECT_THROW(load_obj(ss), std::runtime_error);
}

TEST(ObjIo, RejectsCollinearAndRepeatedIndexFaces) {
  std::stringstream collinear("v 0 0 0\nv 1 1 0\nv 2 2 1\nf 1 2 3\n");
  EXPECT_THROW(load_obj(collinear), std::invalid_argument);
  std::stringstream repeated("v 0 0 0\nv 1 0 0\nv 0 1 1\nf 1 1 2\n");
  EXPECT_THROW(load_obj(repeated), std::invalid_argument);
}

}  // namespace
}  // namespace thsr

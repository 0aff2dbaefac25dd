#pragma once
/// \file terrain.hpp
/// Polyhedral terrain model (TIN). A terrain is a piecewise-linear surface
/// z = f(x, y): a triangulated straight-line graph whose vertices carry
/// integer coordinates and whose ground projection is a planar subdivision
/// (paper section 2). The viewer sits at x = +infinity looking along -x;
/// the image plane is z-y.
///
/// Edges are the unit of processing in every HSR algorithm here. An edge
/// whose ground projection is parallel to the viewing axis (dy == 0)
/// projects to a zero-width vertical "sliver" in the image plane; such edges
/// are excluded from envelopes and handled by the sliver path (DESIGN.md
/// section 4.5).

#include <array>
#include <span>
#include <vector>

#include "geometry/predicates.hpp"

namespace thsr {

/// A terrain vertex: integer coordinates with |coordinate| <= kMaxCoord
/// (2^21, DESIGN.md section 5). x points toward the viewer, y spans the
/// image plane horizontally, z is height.
struct Vertex3 {
  i64 x{0};  ///< depth axis: the viewer sits at x = +infinity
  i64 y{0};  ///< image-plane abscissa
  i64 z{0};  ///< height (the terrain is z = f(x, y))
  friend constexpr bool operator==(const Vertex3&, const Vertex3&) = default;
};

/// Exact orientation of c against the segment a->b in the ground plane
/// (u = y, v = x): positive when c lies on the +x (viewer) side of the
/// line through a->b oriented by increasing y. Exact in i128.
inline int orient_ground(const Vertex3& a, const Vertex3& b, const Vertex3& c) {
  return sgn128(i128{b.y - a.y} * (c.x - a.x) - i128{b.x - a.x} * (c.y - a.y));
}

/// A triangular face as three vertex indices. Orientation is free: the
/// library derives ground orientation from coordinates where needed.
struct Triangle {
  u32 a{0};  ///< first vertex index
  u32 b{0};  ///< second vertex index
  u32 c{0};  ///< third vertex index
};

/// Canonical undirected edge: a < b as vertex indices.
struct Edge {
  u32 a{0};  ///< smaller endpoint index
  u32 b{0};  ///< larger endpoint index
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Degenerate edge (dy == 0): a vertical segment {y} x [zlo, zhi] in the
/// image plane, with ground x-extent [xlo, xhi] (DESIGN.md section 4.5).
struct SliverInfo {
  i64 y{0};             ///< the single image-plane ordinate the edge occupies
  i64 x_lo{0}, x_hi{0}; ///< ground depth extent (x_lo <= x_hi)
  i64 z_lo{0}, z_hi{0}; ///< image-plane height extent (z_lo <= z_hi)
};

class Terrain {
 public:
  Terrain() = default;

  /// Build from a triangle soup; computes the unique edge set (sorted, so
  /// edge ids are stable in the input alone) and each face's three edge
  /// ids (`tri_edges`), and validates coordinate bounds and the z = f(x,y)
  /// property (no duplicate ground position). Triangle order is preserved —
  /// triangle ids are input indices.
  /// \param vertices  vertex table; every |coordinate| must be <= kMaxCoord
  /// \param triangles faces into `vertices`; must be non-degenerate in
  ///                  ground projection
  /// \return the validated terrain
  /// \throws std::invalid_argument on bound violations, a vertex index out
  ///         of range or repeated within a face, a ground-collinear face, an
  ///         edge shared by more than two faces, or duplicate ground
  ///         positions. The edge table is a counting sort of the faces'
  ///         sides by smaller endpoint, O(n + m) for n vertices and m faces
  ///         of bounded degree; the ground-position check sorts the
  ///         vertices, O(n log n).
  static Terrain from_triangles(std::vector<Vertex3> vertices, std::vector<Triangle> triangles);

  std::size_t vertex_count() const noexcept { return vertices_.size(); }  ///< number of vertices
  /// Number of faces.
  std::size_t triangle_count() const noexcept { return triangles_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }  ///< number of unique edges

  /// Bytes of the vertex, face, edge and face-to-edge tables: the resident
  /// cost of one copy of this terrain (charged by the stream residency
  /// meter and the service cache's footprint accounting).
  u64 footprint_bytes() const noexcept {
    return vertices_.size() * sizeof(Vertex3) + triangles_.size() * sizeof(Triangle) +
           edges_.size() * sizeof(Edge) + tri_edges_.size() * sizeof(TriEdges);
  }

  const Vertex3& vertex(u32 i) const { return vertices_[i]; }  ///< vertex by index
  std::span<const Vertex3> vertices() const noexcept { return vertices_; }  ///< all vertices
  /// All faces, in input order (triangle ids are input indices).
  std::span<const Triangle> triangles() const noexcept { return triangles_; }
  std::span<const Edge> edges() const noexcept { return edges_; }  ///< unique edges, sorted

  /// Edge ids of face ti's sides (a,b), (b,c) and (a,c), in that order.
  using TriEdges = std::array<u32, 3>;
  const TriEdges& tri_edges(u32 ti) const { return tri_edges_[ti]; }

  /// True when edge e's ground projection has dy == 0.
  bool is_sliver(u32 e) const {
    const Edge& ed = edges_[e];
    return vertices_[ed.a].y == vertices_[ed.b].y;
  }

  /// Image-plane segment (u = y, v = z). Requires !is_sliver(e).
  Seg2 image_segment(u32 e) const {
    const Edge& ed = edges_[e];
    const Vertex3 &p = vertices_[ed.a], &q = vertices_[ed.b];
    THSR_DCHECK(p.y != q.y);
    return p.y < q.y ? Seg2{p.y, p.z, q.y, q.z} : Seg2{q.y, q.z, p.y, p.z};
  }

  /// Ground-plane segment (u = y, v = x). Requires !is_sliver(e).
  Seg2 ground_segment(u32 e) const {
    const Edge& ed = edges_[e];
    const Vertex3 &p = vertices_[ed.a], &q = vertices_[ed.b];
    THSR_DCHECK(p.y != q.y);
    return p.y < q.y ? Seg2{p.y, p.x, q.y, q.x} : Seg2{q.y, q.x, p.y, p.x};
  }

  /// Degenerate-edge descriptor. Requires is_sliver(e).
  SliverInfo sliver(u32 e) const {
    const Edge& ed = edges_[e];
    const Vertex3 &p = vertices_[ed.a], &q = vertices_[ed.b];
    THSR_DCHECK(p.y == q.y);
    SliverInfo s;
    s.y = p.y;
    s.x_lo = std::min(p.x, q.x);
    s.x_hi = std::max(p.x, q.x);
    s.z_lo = std::min(p.z, q.z);
    s.z_hi = std::max(p.z, q.z);
    return s;
  }

  i64 min_y() const noexcept { return min_y_; }          ///< smallest vertex ordinate
  i64 max_y() const noexcept { return max_y_; }          ///< largest vertex ordinate
  i64 max_abs_coord() const noexcept { return max_abs_; } ///< largest |coordinate| present

  /// O(min(pairs, n^2)) check that ground projections of non-sliver edges do
  /// not properly cross (test helper; terrains built by the generators hold
  /// this by construction).
  bool projections_planar(std::size_t pair_limit = 2'000'000) const;

  /// Exact azimuth rotation: ground coordinates map through
  /// (x, y) -> (a*x - b*y, b*x + a*y), a rotation by atan2(b, a) scaled by
  /// sqrt(a^2+b^2) (scaling does not affect visibility). With (a, b) from a
  /// Pythagorean triple this realizes exact rational view angles — viewing
  /// the rotated terrain along -x equals viewing the original from that
  /// azimuth. Throws std::invalid_argument for (0, 0) or when the scaled
  /// coordinates leave the admissible range.
  Terrain rotate_ground(i64 a, i64 b) const;

 private:
  std::vector<Vertex3> vertices_;
  std::vector<Triangle> triangles_;
  std::vector<Edge> edges_;
  std::vector<TriEdges> tri_edges_;
  i64 min_y_{0}, max_y_{0}, max_abs_{0};
};

}  // namespace thsr

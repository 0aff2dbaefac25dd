#include "terrain/terrain.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace thsr {
namespace {

bool proper_cross(const Vertex3& a0, const Vertex3& a1, const Vertex3& b0, const Vertex3& b1) {
  const int o1 = orient_ground(a0, a1, b0), o2 = orient_ground(a0, a1, b1);
  const int o3 = orient_ground(b0, b1, a0), o4 = orient_ground(b0, b1, a1);
  return o1 * o2 < 0 && o3 * o4 < 0;
}

}  // namespace

Terrain Terrain::from_triangles(std::vector<Vertex3> vertices, std::vector<Triangle> triangles) {
  Terrain t;
  t.vertices_ = std::move(vertices);
  t.triangles_ = std::move(triangles);

  for (const Vertex3& v : t.vertices_) {
    if (std::abs(v.x) > kMaxCoord || std::abs(v.y) > kMaxCoord || std::abs(v.z) > kMaxCoord) {
      throw std::invalid_argument("Terrain: coordinate exceeds kMaxCoord (2^21)");
    }
  }
  // z = f(x,y): no two vertices share a ground position.
  {
    std::vector<u32> idx(t.vertices_.size());
    for (u32 i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](u32 i, u32 j) {
      const Vertex3 &a = t.vertices_[i], &b = t.vertices_[j];
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    for (std::size_t i = 1; i < idx.size(); ++i) {
      const Vertex3 &a = t.vertices_[idx[i - 1]], &b = t.vertices_[idx[i]];
      if (a.x == b.x && a.y == b.y) {
        throw std::invalid_argument("Terrain: duplicate ground position (not a function z=f(x,y))");
      }
    }
  }

  // Edge table: the faces' sides (a,b), (b,c), (a,c) counting-sorted by
  // their smaller endpoint, then each endpoint's short bucket sorted by the
  // larger one, so edge ids come out in (a, b) order and each side's slot
  // learns its edge id in the same pass.
  const auto n_verts = static_cast<u32>(t.vertices_.size());
  const std::size_t m = t.triangles_.size();
  if (m >= (std::size_t{1} << 32) / 3) {
    throw std::invalid_argument("Terrain: too many faces for 32-bit side slots");
  }
  std::vector<u32> start(std::size_t{n_verts} + 1, 0);
  for (const Triangle& tr : t.triangles_) {
    if (tr.a >= n_verts || tr.b >= n_verts || tr.c >= n_verts) {
      throw std::invalid_argument("Terrain: face vertex index out of range");
    }
    if (tr.a == tr.b || tr.b == tr.c || tr.a == tr.c) {
      throw std::invalid_argument("Terrain: face repeats a vertex index");
    }
    if (orient_ground(t.vertices_[tr.a], t.vertices_[tr.b], t.vertices_[tr.c]) == 0) {
      throw std::invalid_argument("Terrain: face is collinear in ground projection");
    }
    ++start[std::min(tr.a, tr.b) + 1];
    ++start[std::min(tr.b, tr.c) + 1];
    ++start[std::min(tr.a, tr.c) + 1];
  }
  for (u32 v = 0; v < n_verts; ++v) start[v + 1] += start[v];
  // Bucket entry: larger endpoint << 32 | side slot (3 * face + side).
  std::vector<u64> sides(3 * m);
  {
    std::vector<u32> fill(start.begin(), start.end() - 1);
    for (std::size_t ti = 0; ti < m; ++ti) {
      const Triangle& tr = t.triangles_[ti];
      const u32 ends[3][2] = {{tr.a, tr.b}, {tr.b, tr.c}, {tr.a, tr.c}};
      for (u32 k = 0; k < 3; ++k) {
        const u32 lo = std::min(ends[k][0], ends[k][1]), hi = std::max(ends[k][0], ends[k][1]);
        sides[fill[lo]++] = u64{hi} << 32 | (3 * ti + k);
      }
    }
  }
  t.tri_edges_.resize(m);
  t.edges_.reserve(m + n_verts);  // Euler: a triangulated disk has E = V + F - 1
  for (u32 v = 0; v < n_verts; ++v) {
    const auto first = sides.begin() + start[v], last = sides.begin() + start[v + 1];
    std::sort(first, last);
    for (auto run = first; run != last;) {
      const auto hi = static_cast<u32>(*run >> 32);
      auto end = run;
      while (end != last && static_cast<u32>(*end >> 32) == hi) ++end;
      if (end - run > 2) throw std::invalid_argument("Terrain: edge shared by more than two faces");
      const auto id = static_cast<u32>(t.edges_.size());
      t.edges_.push_back(Edge{v, hi});
      for (; run != end; ++run) {
        const auto slot = static_cast<u32>(*run);
        t.tri_edges_[slot / 3][slot % 3] = id;
      }
    }
  }

  if (!t.vertices_.empty()) {
    t.min_y_ = t.max_y_ = t.vertices_[0].y;
    for (const Vertex3& v : t.vertices_) {
      t.min_y_ = std::min(t.min_y_, v.y);
      t.max_y_ = std::max(t.max_y_, v.y);
      t.max_abs_ = std::max({t.max_abs_, std::abs(v.x), std::abs(v.y), std::abs(v.z)});
    }
  }
  return t;
}

Terrain Terrain::rotate_ground(i64 a, i64 b) const {
  if (a == 0 && b == 0) throw std::invalid_argument("rotate_ground: (a, b) = (0, 0)");
  std::vector<Vertex3> vs(vertices_.begin(), vertices_.end());
  for (Vertex3& v : vs) {
    const i64 x = a * v.x - b * v.y;
    const i64 y = b * v.x + a * v.y;
    v.x = x;
    v.y = y;
  }
  return from_triangles(std::move(vs), {triangles_.begin(), triangles_.end()});
}

bool Terrain::projections_planar(std::size_t pair_limit) const {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    for (std::size_t j = i + 1; j < edges_.size(); ++j) {
      if (++checked > pair_limit) return true;  // budget exhausted: vacuous pass
      const Edge &e = edges_[i], &f = edges_[j];
      if (proper_cross(vertices_[e.a], vertices_[e.b], vertices_[f.a], vertices_[f.b])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace thsr

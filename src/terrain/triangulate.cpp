#include "terrain/triangulate.hpp"

#include <algorithm>
#include <stdexcept>

namespace thsr {
namespace {

// Ground order along the sweep: by y, ties by x.
bool ground_less(const Vertex3& a, const Vertex3& b) {
  return a.y != b.y ? a.y < b.y : a.x < b.x;
}

}  // namespace

bool face_convex_ground(std::span<const u32> face, std::span<const Vertex3> verts) {
  const std::size_t n = face.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    const Vertex3& a = verts[face[i]];
    const Vertex3& b = verts[face[(i + 1) % n]];
    const Vertex3& c = verts[face[(i + 2) % n]];
    if (orient_ground(a, b, c) < 0) return false;  // CCW faces: no right turns
  }
  return true;
}

std::vector<Triangle> triangulate_convex(std::span<const u32> face) {
  THSR_CHECK(face.size() >= 3);
  std::vector<Triangle> out;
  out.reserve(face.size() - 2);
  for (std::size_t i = 1; i + 1 < face.size(); ++i) {
    out.push_back({face[0], face[i], face[i + 1]});
  }
  return out;
}

std::vector<Triangle> triangulate_monotone(std::span<const u32> face,
                                           std::span<const Vertex3> verts) {
  const std::size_t n = face.size();
  THSR_CHECK(n >= 3);
  if (n == 3) return {Triangle{face[0], face[1], face[2]}};

  // Locate the ground-minimum and maximum corners; the two boundary chains
  // between them must each be monotone in the ground order.
  std::size_t lo = 0, hi = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (ground_less(verts[face[i]], verts[face[lo]])) lo = i;
    if (ground_less(verts[face[hi]], verts[face[i]])) hi = i;
  }
  // chain A: lo -> hi walking forward; chain B: lo -> hi walking backward.
  std::vector<u32> merged;  // all vertices in ground order, chain-tagged
  std::vector<bool> on_a;
  {
    std::vector<u32> a, b;
    for (std::size_t i = lo;; i = (i + 1) % n) {
      a.push_back(face[i]);
      if (i == hi) break;
    }
    for (std::size_t i = lo;; i = (i + n - 1) % n) {
      b.push_back(face[i]);
      if (i == hi) break;
    }
    const auto check_mono = [&](const std::vector<u32>& c) {
      for (std::size_t i = 1; i < c.size(); ++i) {
        if (!ground_less(verts[c[i - 1]], verts[c[i]])) {
          throw std::invalid_argument("triangulate_monotone: polygon is not y-monotone");
        }
      }
    };
    check_mono(a);
    check_mono(b);
    std::size_t ia = 0, ib = 1;  // skip duplicate lo on chain b
    const std::size_t ea = a.size(), eb = b.size() - 1;  // skip duplicate hi on chain b
    while (ia < ea || ib < eb) {
      const bool take_a =
          ib >= eb || (ia < ea && ground_less(verts[a[ia]], verts[b[ib]]));
      merged.push_back(take_a ? a[ia] : b[ib]);
      on_a.push_back(take_a);
      take_a ? ++ia : ++ib;
    }
  }

  // Standard monotone-polygon stack algorithm. Emitted triangles are
  // orientation-normalized to CCW in the ground plane.
  std::vector<Triangle> out;
  out.reserve(n - 2);
  const auto emit = [&](u32 a, u32 b, u32 c) {
    if (orient_ground(verts[a], verts[b], verts[c]) < 0) std::swap(b, c);
    out.push_back({a, b, c});
  };
  std::vector<std::size_t> st{0, 1};
  for (std::size_t i = 2; i < merged.size(); ++i) {
    if (on_a[i] != on_a[st.back()]) {
      while (st.size() > 1) {
        const std::size_t p = st.back();
        st.pop_back();
        emit(merged[st.back()], merged[p], merged[i]);
      }
      st.pop_back();
      st.push_back(i - 1);
      st.push_back(i);
    } else {
      std::size_t last = st.back();
      st.pop_back();
      while (!st.empty()) {
        const Vertex3& u = verts[merged[st.back()]];
        const Vertex3& v = verts[merged[last]];
        const Vertex3& w = verts[merged[i]];
        const int o = orient_ground(u, v, w);
        const bool convex = on_a[i] ? o > 0 : o < 0;
        if (!convex) break;
        emit(merged[st.back()], merged[last], merged[i]);
        last = st.back();
        st.pop_back();
      }
      st.push_back(last);
      st.push_back(i);
    }
  }
  return out;
}

Terrain triangulate_polygonal(std::vector<Vertex3> verts,
                              const std::vector<std::vector<u32>>& faces) {
  std::vector<Triangle> tris;
  for (const auto& f : faces) {
    std::vector<Triangle> part = face_convex_ground(f, verts)
                                     ? triangulate_convex(f)
                                     : triangulate_monotone(f, verts);
    tris.insert(tris.end(), part.begin(), part.end());
  }
  return Terrain::from_triangles(std::move(verts), std::move(tris));
}

}  // namespace thsr

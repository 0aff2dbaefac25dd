#include "separator/depth_order.hpp"

#include <algorithm>
#include <queue>
#include <set>

#include "geometry/predicates.hpp"

namespace thsr {
namespace {

struct SweepState {
  i64 y{0};
  Side side{Side::After};
};

struct ActiveEdge {
  u32 id;
  Seg2 g;  // ground segment, v = x as a function of u = y
};

// Probe for heterogeneous lookups at the sliver ordinate.
struct XProbe {
  i64 x;
};

struct ActiveCmp {
  using is_transparent = void;
  const SweepState* st;

  bool operator()(const ActiveEdge& a, const ActiveEdge& b) const {
    if (a.id == b.id) return false;
    const int c = cmp_value_near(a.g, b.g, QY::of(st->y), st->side);
    if (c != 0) return c < 0;
    return a.id < b.id;  // collinear supporting lines: disjoint spans, id-stable
  }
  bool operator()(const ActiveEdge& a, const XProbe& p) const {
    return cmp_value_vs_int(a.g, QY::of(st->y), p.x) < 0;
  }
  bool operator()(const XProbe& p, const ActiveEdge& a) const {
    return cmp_value_vs_int(a.g, QY::of(st->y), p.x) > 0;
  }
};

/// Constraint arc: `first` precedes (is in front of) `second`.
using Arc = std::pair<u32, u32>;

/// Plane sweep over the edges `ids` of `t`: appends an arc for every pair
/// that becomes x-adjacent among those edges (at insertion and removal
/// events) and orders each sliver against its nearest strictly-front and
/// strictly-behind neighbours.
void sweep_arcs(const Terrain& t, std::span<const u32> ids, std::vector<Arc>& arcs) {
  struct Event {
    i64 y;
    int kind;  // 0 = remove, 1 = sliver point, 2 = insert
    u32 edge;
  };
  std::vector<Event> events;
  events.reserve(2 * ids.size());
  for (const u32 e : ids) {
    if (t.is_sliver(e)) {
      events.push_back({t.sliver(e).y, 1, e});
    } else {
      const Seg2 g = t.ground_segment(e);
      events.push_back({g.u0, 2, e});
      events.push_back({g.u1, 0, e});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.y != b.y) return a.y < b.y;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.edge < b.edge;
  });

  SweepState st;
  std::set<ActiveEdge, ActiveCmp> active{ActiveCmp{&st}};
  const auto arc = [&](u32 front, u32 back) { arcs.emplace_back(front, back); };

  for (std::size_t i = 0; i < events.size();) {
    const i64 y = events[i].y;
    st.y = y;

    // Phase 0: removals, compared on the Before side (consistent with the
    // set order established while the edges were interior-active).
    st.side = Side::Before;
    while (i < events.size() && events[i].y == y && events[i].kind == 0) {
      const u32 e = events[i].edge;
      auto it = active.find(ActiveEdge{e, t.ground_segment(e)});
      THSR_CHECK(it != active.end());
      auto nxt = active.erase(it);
      if (nxt != active.begin() && nxt != active.end()) {
        arc(nxt->id, std::prev(nxt)->id);  // newly adjacent: bigger-x in front
      }
      ++i;
    }

    // Phase 1: sliver point events against interior-spanning actives.
    while (i < events.size() && events[i].y == y && events[i].kind == 1) {
      const u32 e = events[i].edge;
      const SliverInfo s = t.sliver(e);
      auto front_it = active.upper_bound(XProbe{s.x_hi});  // first strictly in front
      if (front_it != active.end()) arc(front_it->id, e);
      auto back_it = active.lower_bound(XProbe{s.x_lo});  // first not strictly behind
      if (back_it != active.begin()) arc(e, std::prev(back_it)->id);
      ++i;
    }

    // Phase 2: insertions, compared on the After side.
    st.side = Side::After;
    while (i < events.size() && events[i].y == y && events[i].kind == 2) {
      const u32 e = events[i].edge;
      auto [it, inserted] = active.insert(ActiveEdge{e, t.ground_segment(e)});
      THSR_CHECK(inserted);
      if (std::next(it) != active.end()) arc(std::next(it)->id, e);
      if (it != active.begin()) arc(e, std::prev(it)->id);
      ++i;
    }
  }
  THSR_CHECK(active.empty());
}

/// Deterministic Kahn topological sort (min edge id first) over the
/// distinct `arcs`, through a CSR adjacency.
DepthOrder kahn_order(u32 n, std::span<const Arc> arcs) {
  std::vector<u32> first(std::size_t{n} + 1, 0), indeg(n, 0);
  for (const auto& [u, v] : arcs) {
    ++first[u + 1];
    ++indeg[v];
  }
  for (u32 e = 0; e < n; ++e) first[e + 1] += first[e];
  std::vector<u32> succ(arcs.size());
  {
    std::vector<u32> fill(first.begin(), first.end() - 1);
    for (const auto& [u, v] : arcs) succ[fill[u]++] = v;
  }

  DepthOrder d;
  d.constraints = arcs.size();
  d.order.reserve(n);
  std::priority_queue<u32, std::vector<u32>, std::greater<>> ready;
  for (u32 e = 0; e < n; ++e) {
    if (indeg[e] == 0) ready.push(e);
  }
  while (!ready.empty()) {
    const u32 e = ready.top();
    ready.pop();
    d.order.push_back(e);
    for (u32 i = first[e]; i < first[e + 1]; ++i) {
      if (--indeg[succ[i]] == 0) ready.push(succ[i]);
    }
  }
  THSR_CHECK(d.order.size() == n);  // acyclic by the terrain depth-order theorem
  d.rank.assign(n, 0);
  for (u32 r = 0; r < n; ++r) d.rank[d.order[r]] = r;
  return d;
}

}  // namespace

DepthOrder sweep_depth_order(const Terrain& t) {
  const auto n = static_cast<u32>(t.edge_count());
  std::vector<u32> ids(n);
  for (u32 e = 0; e < n; ++e) ids[e] = e;
  std::vector<Arc> arcs;
  arcs.reserve(4 * std::size_t{n});
  sweep_arcs(t, ids, arcs);
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  return kahn_order(n, arcs);
}

DepthOrder compute_depth_order(const Terrain& t) {
  const auto n = static_cast<u32>(t.edge_count());
  const auto m = static_cast<u32>(t.triangle_count());
  constexpr u32 kNone = 0xffffffffu, kTwoFaces = 0xfffffffeu;
  // Side k of tri_edges joins (a,b), (b,c), (a,c): the side opposite
  // vertex a is 1, opposite b is 2, opposite c is 0.
  constexpr int kOpposite[3] = {1, 2, 0};

  std::vector<Arc> arcs;
  arcs.reserve(2 * std::size_t{m});
  std::vector<u32> face_of(n, kNone);  // the one face of a boundary edge
  for (u32 ti = 0; ti < m; ++ti) {
    const Triangle& tr = t.triangles()[ti];
    const Vertex3* v[3] = {&t.vertex(tr.a), &t.vertex(tr.b), &t.vertex(tr.c)};
    if (v[0]->y == v[1]->y || v[1]->y == v[2]->y || v[0]->y == v[2]->y) {
      return sweep_depth_order(t);  // a sliver side: no long side to pivot on
    }
    int lo = 0, hi = 0;
    for (int k = 1; k < 3; ++k) {
      if (v[k]->y < v[lo]->y) lo = k;
      if (v[k]->y > v[hi]->y) hi = k;
    }
    const int mid = 3 - lo - hi;
    // The long side spans the face's whole y-range; each short side is
    // x-adjacent to it across the face's interior, on the middle vertex's
    // side of it.
    const Terrain::TriEdges& te = t.tri_edges(ti);
    const u32 long_side = te[kOpposite[mid]];
    const bool short_in_front = orient_ground(*v[lo], *v[hi], *v[mid]) > 0;
    for (int k = 0; k < 3; ++k) {
      face_of[te[k]] = face_of[te[k]] == kNone ? ti : kTwoFaces;
      if (te[k] == long_side) continue;
      arcs.push_back(short_in_front ? Arc{te[k], long_side} : Arc{long_side, te[k]});
    }
  }

  // Across a gap in the domain, x-adjacent edges are both boundary edges.
  std::vector<u32> boundary;
  for (u32 e = 0; e < n; ++e) {
    if (face_of[e] != kTwoFaces) boundary.push_back(e);
  }
  std::vector<Arc> gap_arcs;
  sweep_arcs(t, boundary, gap_arcs);
  std::sort(gap_arcs.begin(), gap_arcs.end());
  gap_arcs.erase(std::unique(gap_arcs.begin(), gap_arcs.end()), gap_arcs.end());
  for (const Arc& a : gap_arcs) {
    // Two sides of one face are adjacent only as long vs short side: that
    // arc is already recorded.
    if (face_of[a.first] != face_of[a.second]) arcs.push_back(a);
  }
  return kahn_order(n, arcs);
}

bool validate_depth_order(const Terrain& t, std::span<const u32> order, std::size_t pair_limit) {
  const auto n = static_cast<u32>(t.edge_count());
  THSR_CHECK(order.size() == n);
  std::vector<u32> rank(n);
  for (u32 r = 0; r < n; ++r) rank[order[r]] = r;

  std::size_t budget = pair_limit;
  for (u32 e = 0; e < n; ++e) {
    for (u32 f = e + 1; f < n; ++f) {
      if (budget-- == 0) return true;
      const bool se = t.is_sliver(e), sf = t.is_sliver(f);
      if (se && sf) continue;  // outside the general-position contract
      if (!se && !sf) {
        const Seg2 a = t.ground_segment(e), b = t.ground_segment(f);
        const i64 lo = std::max(a.u0, b.u0), hi = std::min(a.u1, b.u1);
        if (lo >= hi) continue;  // no common interior: incomparable
        const QY mid(i128{lo} + hi, 2);
        const int c = cmp_value_at(a, b, mid);  // sign(x_e - x_f) on the overlap
        if (c > 0 && !(rank[e] < rank[f])) return false;
        if (c < 0 && !(rank[f] < rank[e])) return false;
      } else {
        const u32 sl = se ? e : f, ed = se ? f : e;
        const SliverInfo s = t.sliver(sl);
        const Seg2 g = t.ground_segment(ed);
        if (!(g.u0 < s.y && s.y < g.u1)) continue;  // interior span only
        const QY yq = QY::of(s.y);
        if (cmp_value_vs_int(g, yq, s.x_hi) > 0 && !(rank[ed] < rank[sl])) return false;
        if (cmp_value_vs_int(g, yq, s.x_lo) < 0 && !(rank[sl] < rank[ed])) return false;
      }
    }
  }
  return true;
}

}  // namespace thsr

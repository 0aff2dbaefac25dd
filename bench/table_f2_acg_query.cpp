/// F2 — Figure 2 + Lemmas 3.2/3.6: first-crossing detection through the
/// (augmented) Chazelle–Guibas structure is polylogarithmic, and all k_s
/// crossings of a segment follow either by walking (k_s queries) or by the
/// paper's parallel split-at-the-middle-diagonal recursion. Measured: node
/// visits per query vs log^2 m, and walk vs split work for all-crossings.

#include <random>

#include "acg/all_crossings.hpp"
#include "bench_util.hpp"
#include "envelope/build.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("F2", "Figure 2, Lemmas 3.2/3.6",
               "ACG first-crossing visits ~ polylog(m); split recursion matches walk");

  Table t({"m_pieces", "visits/query", "log2^2(m)", "visits/log2^2", "walk_us", "split_us",
           "split_par_us", "avg_k_s"});
  std::vector<u32> grids{24, 48, 96};
  if (large()) grids.push_back(160);
  for (const u32 g : grids) {
    const Terrain terr = make(Family::Spikes, g, 1, 0.15);
    std::vector<Seg2> segs(terr.edge_count(), Seg2{0, 0, 1, 0});
    std::vector<u32> ids;
    for (u32 e = 0; e < terr.edge_count(); ++e) {
      if (!terr.is_sliver(e)) {
        segs[e] = terr.image_segment(e);
        ids.push_back(e);
      }
    }
    const Envelope env = envelope_of(ids, segs);
    const HullTree tree(env, segs);

    std::mt19937_64 rg{g};
    std::uniform_int_distribution<i64> ys(terr.min_y(), terr.max_y()), zs(0, 8 * g);
    std::vector<Seg2> queries;
    while (queries.size() < 500) {
      const i64 a = ys(rg), b = ys(rg);
      if (a == b) continue;
      const i64 za = zs(rg), zb = zs(rg);
      queries.push_back(a < b ? Seg2{a, za, b, zb} : Seg2{b, zb, a, za});
    }

    tree.reset_stats();
    for (const Seg2& q : queries) (void)tree.first_crossing(q, QY::of(q.u0), QY::of(q.u1));
    const double visits =
        static_cast<double>(tree.nodes_visited()) / static_cast<double>(queries.size());

    const auto time_us = [&](auto&& fn) {
      const Stopwatch clock;
      u64 total = 0;
      for (const Seg2& q : queries) total += fn(q);
      const double el = clock.seconds();
      return std::pair(el * 1e6 / static_cast<double>(queries.size()),
                       static_cast<double>(total) / static_cast<double>(queries.size()));
    };
    const auto [walk_us, ks] = time_us([&](const Seg2& q) {
      return all_crossings_walk(tree, q, QY::of(q.u0), QY::of(q.u1)).size();
    });
    const auto [split_us, ks2] = time_us([&](const Seg2& q) {
      return all_crossings_split(tree, env, q, QY::of(q.u0), QY::of(q.u1), false).size();
    });
    THSR_CHECK(ks == ks2);
    const auto [split_par_us, ks3] = time_us([&](const Seg2& q) {
      return all_crossings_split(tree, env, q, QY::of(q.u0), QY::of(q.u1), true).size();
    });
    THSR_CHECK(ks == ks3);

    const double l2 = log2d(static_cast<double>(env.size()));
    t.row({Table::num(static_cast<long long>(env.size())), Table::num(visits, 1),
           Table::num(l2 * l2, 1), Table::num(visits / (l2 * l2), 3), Table::num(walk_us, 1),
           Table::num(split_us, 1), Table::num(split_par_us, 1), Table::num(ks, 2)});
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_f2_acg_query");
  return 0;
}

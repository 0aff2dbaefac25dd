/// E10 — design ablation for the DESIGN.md section 1 substitution: first-
/// crossing queries against a profile, three ways. `naive` scans pieces
/// linearly; `hull_tree` is the paper-faithful static ACG (convex-chain
/// pruning, O(log^2)); `persistent` is the z-box-pruned descent over the
/// persistent treap used inside phase 2. Reports average query time and
/// visited nodes per query at growing profile size.

#include <random>

#include "acg/hull_tree.hpp"
#include "bench_util.hpp"
#include "cg/profile_query.hpp"
#include "envelope/build.hpp"
#include "parallel/work_depth.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace thsr;

// Naive reference oracle: linear scan for the first crossing.
std::optional<QY> naive_first_crossing(const Envelope& env, std::span<const Seg2> segs,
                                       const Seg2& s, const QY& from, const QY& to, u64& steps) {
  for (const EnvPiece& p : env.pieces()) {
    ++steps;
    const QY lo = qmax(from, p.y0), hi = qmin(to, p.y1);
    if (!(lo < hi)) continue;
    if (auto cr = crossing_in(s, segs[p.edge], lo, hi)) return cr;
  }
  return std::nullopt;
}

}  // namespace

int main() {
  using namespace thsr;
  using namespace thsr::bench;
  print_header("E10", "DESIGN.md section 1 (oracle substitution)",
               "hull-tree ACG and persistent descent are polylog; naive is linear");

  Table t({"m_pieces", "oracle", "us/query", "steps/query", "hits"});
  std::vector<u32> grids{24, 48, 96};
  if (large()) grids.push_back(160);
  for (const u32 g : grids) {
    const Terrain terr = make(Family::Fbm, g);
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
    PArena arena;
    ptreap::Ref prof = ptreap::make_floor(arena);
    for (const EnvPiece& p : env.pieces()) {
      const PieceData run{p.y0, p.y1, p.edge};
      prof = ptreap::replace_range(arena, prof, p.y0, p.y1, std::span(&run, 1), segs);
    }

    // Query soup: random chords across the profile's bounding box.
    std::mt19937_64 rg{g};
    const i64 ylo = terr.min_y(), yhi = terr.max_y();
    std::uniform_int_distribution<i64> ys(ylo, yhi), zs(0, 8 * g);
    std::vector<Seg2> queries;
    while (queries.size() < 2000) {
      const i64 a = ys(rg), b = ys(rg);
      if (a == b) continue;
      const i64 za = zs(rg), zb = zs(rg);
      queries.push_back(a < b ? Seg2{a, za, b, zb} : Seg2{b, zb, a, za});
    }

    const auto run_oracle = [&](const char* name, auto&& fn) {
      work::reset();
      u64 steps = 0, hits = 0;
      const Stopwatch clock;
      for (const Seg2& q : queries) hits += fn(q, steps);
      const double el = clock.seconds();
      const Counters c = work::snapshot();
      const u64 total_steps = steps ? steps : c[Op::OracleStep];
      t.row({Table::num(static_cast<long long>(env.size())), name,
             Table::num(el * 1e6 / static_cast<double>(queries.size()), 2),
             Table::num(static_cast<double>(total_steps) / static_cast<double>(queries.size()), 1),
             Table::num(static_cast<long long>(hits))});
    };

    run_oracle("naive", [&](const Seg2& q, u64& steps) {
      return naive_first_crossing(env, segs, q, QY::of(q.u0), QY::of(q.u1), steps).has_value();
    });
    run_oracle("hull_tree", [&](const Seg2& q, u64&) {
      return tree.first_crossing(q, QY::of(q.u0), QY::of(q.u1)).has_value();
    });
    run_oracle("persistent", [&](const Seg2& q, u64&) {
      std::vector<TransitionEvent> ev;
      walk_transitions(prof, q, QY::of(q.u0), QY::of(q.u1), segs, ev);
      return !ev.empty();
    });
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_e10_ablation_oracle");
  std::cout << "\nnote: 'persistent' walks report *all* transitions, not just the first —\n"
               "their step counts upper-bound a first-crossing query.\n";
  return 0;
}

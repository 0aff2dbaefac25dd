/// Micro-kernels: first-crossing / transition-walk oracles (Lemmas 3.2-3.6).

#include <benchmark/benchmark.h>

#include <random>

#include "acg/hull_tree.hpp"
#include "cg/profile_query.hpp"
#include "envelope/build.hpp"
#include "support/random_segments.hpp"

namespace {

using namespace thsr;

struct Fixture {
  std::vector<Seg2> segs;
  std::vector<u32> ids;
  Envelope env;
  PArena arena;
  ptreap::Ref prof;
  std::vector<Seg2> queries;

  explicit Fixture(std::size_t m) {
    segs = support::random_segments(17, m, 100'000);
    ids.resize(m);
    for (u32 i = 0; i < m; ++i) ids[i] = i;
    env = envelope_of(ids, segs);
    prof = ptreap::make_floor(arena);
    for (const EnvPiece& p : env.pieces()) {
      const PieceData run{p.y0, p.y1, p.edge};
      prof = ptreap::replace_range(arena, prof, p.y0, p.y1, std::span(&run, 1), segs);
    }
    queries = support::random_segments(23, 1024, 100'000);
  }
};

void BM_HullTreeFirstCrossing(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  const HullTree tree(f.env, f.segs);
  std::size_t qi = 0;
  for (auto _ : state) {
    const Seg2& q = f.queries[qi++ % f.queries.size()];
    benchmark::DoNotOptimize(tree.first_crossing(q, QY::of(q.u0), QY::of(q.u1)));
  }
}
BENCHMARK(BM_HullTreeFirstCrossing)->Arg(1 << 10)->Arg(1 << 14);

void BM_PersistentWalk(benchmark::State& state) {
  Fixture f(static_cast<std::size_t>(state.range(0)));
  std::size_t qi = 0;
  std::vector<TransitionEvent> ev;
  for (auto _ : state) {
    const Seg2& q = f.queries[qi++ % f.queries.size()];
    ev.clear();
    benchmark::DoNotOptimize(
        walk_transitions(f.prof, q, QY::of(q.u0), QY::of(q.u1), f.segs, ev));
  }
}
BENCHMARK(BM_PersistentWalk)->Arg(1 << 10)->Arg(1 << 14);

void BM_ExactPredicate(benchmark::State& state) {
  const auto segs = support::random_segments(29, 1024, 100'000);
  std::size_t i = 0;
  const QY y(12345, 67);
  for (auto _ : state) {
    const Seg2& a = segs[i % segs.size()];
    const Seg2& b = segs[(i * 7 + 1) % segs.size()];
    benchmark::DoNotOptimize(cmp_value_at(a, b, y));
    ++i;
  }
}
BENCHMARK(BM_ExactPredicate);

void BM_LineCrossing(benchmark::State& state) {
  const auto segs = support::random_segments(31, 1024, 100'000);
  std::size_t i = 0;
  for (auto _ : state) {
    const Seg2& a = segs[i % segs.size()];
    const Seg2& b = segs[(i * 13 + 5) % segs.size()];
    benchmark::DoNotOptimize(line_crossing(a, b));
    ++i;
  }
}
BENCHMARK(BM_LineCrossing);

}  // namespace

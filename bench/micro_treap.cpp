/// Micro-kernels: persistent treap splices and point queries (the
/// persistence costs of phase 2, reference [6]).

#include <benchmark/benchmark.h>

#include <random>

#include "persist/ptreap.hpp"

namespace {

using namespace thsr;

std::vector<Seg2> wide_segments(std::size_t n) {
  std::mt19937_64 g{11};
  std::uniform_int_distribution<i64> v(-100'000, 100'000);
  std::vector<Seg2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(Seg2{-1'000'000, v(g), 1'000'000, v(g)});
  return out;
}

void BM_TreapSplice(benchmark::State& state) {
  const i64 prefill = state.range(0);
  const auto segs = wide_segments(64);
  // Prefill once; persistence lets every timed batch splice from the same
  // immutable base version without interference.
  PArena arena;
  ptreap::Ref base = ptreap::make_floor(arena);
  std::mt19937_64 g{5};
  std::uniform_int_distribution<i64> ys(-900'000, 900'000);
  for (i64 i = 0; i < prefill; ++i) {
    const i64 y = ys(g);
    const PieceData p{QY::of(y), QY::of(y + 7), static_cast<u32>(i % 64)};
    base = ptreap::replace_range(arena, base, p.y0, p.y1, std::span(&p, 1), segs);
  }
  for (auto _ : state) {
    ptreap::Ref t = base;
    for (int i = 0; i < 256; ++i) {
      const i64 y = ys(g);
      const PieceData p{QY::of(y), QY::of(y + 5), static_cast<u32>(i % 64)};
      t = ptreap::replace_range(arena, t, p.y0, p.y1, std::span(&p, 1), segs);
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TreapSplice)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 15);

void BM_TreapPieceAt(benchmark::State& state) {
  const auto segs = wide_segments(64);
  PArena arena;
  ptreap::Ref t = ptreap::make_floor(arena);
  std::mt19937_64 g{9};
  std::uniform_int_distribution<i64> ys(-900'000, 900'000);
  for (int i = 0; i < (1 << 14); ++i) {
    const i64 y = ys(g);
    const PieceData p{QY::of(y), QY::of(y + 9), static_cast<u32>(i % 64)};
    t = ptreap::replace_range(arena, t, p.y0, p.y1, std::span(&p, 1), segs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptreap::piece_at(t, QY::of(ys(g)), Side::After));
  }
}
BENCHMARK(BM_TreapPieceAt);

}  // namespace

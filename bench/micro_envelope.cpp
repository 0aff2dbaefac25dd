/// Micro-kernels: envelope construction and merging (Lemma 3.1 kernels).

#include <benchmark/benchmark.h>

#include "envelope/build.hpp"
#include "support/random_segments.hpp"

namespace {

using namespace thsr;

void BM_EnvelopeBuildSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto segs = support::random_segments(1, n, 100'000);
  std::vector<u32> ids(n);
  for (u32 i = 0; i < n; ++i) ids[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(envelope_of(ids, segs, false));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(n));
}
BENCHMARK(BM_EnvelopeBuildSerial)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_EnvelopeBuildParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto segs = support::random_segments(1, n, 100'000);
  std::vector<u32> ids(n);
  for (u32 i = 0; i < n; ++i) ids[i] = i;
  for (auto _ : state) {
    benchmark::DoNotOptimize(envelope_of(ids, segs, true));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(n));
}
BENCHMARK(BM_EnvelopeBuildParallel)->Arg(1 << 13)->Arg(1 << 16);

void BM_EnvelopeMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto segs = support::random_segments(3, 2 * n, 100'000);
  std::vector<u32> a, b;
  for (u32 i = 0; i < 2 * n; ++i) (i % 2 ? a : b).push_back(i);
  const Envelope ea = envelope_of(a, segs), eb = envelope_of(b, segs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_envelopes(ea, eb, segs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(ea.size() + eb.size()));
}
BENCHMARK(BM_EnvelopeMerge)->Arg(1 << 10)->Arg(1 << 14);

void BM_EnvelopeEval(benchmark::State& state) {
  const auto segs = support::random_segments(5, 1 << 14, 100'000);
  std::vector<u32> ids(segs.size());
  for (u32 i = 0; i < ids.size(); ++i) ids[i] = i;
  const Envelope env = envelope_of(ids, segs);
  i64 y = -100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.piece_index_at(QY::of(y), Side::After));
    y = (y + 997) % 100000;
  }
}
BENCHMARK(BM_EnvelopeEval);

}  // namespace

#pragma once
/// Shared helpers for the table benches.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/hsr.hpp"
#include "io/csv.hpp"
#include "terrain/generators.hpp"

namespace thsr::bench {

/// Larger sweeps when THSR_BENCH_LARGE=1.
inline bool large() {
  const char* v = std::getenv("THSR_BENCH_LARGE");
  return v && std::string(v) == "1";
}

inline Terrain make(Family f, u32 grid, u64 seed = 1, double spike_density = 0.05) {
  GenOptions opt;
  opt.family = f;
  opt.grid = grid;
  opt.seed = seed;
  opt.amplitude = 4 * grid;
  opt.spike_density = spike_density;
  return make_terrain(opt);
}

inline double log2d(double v) { return std::log2(std::max(2.0, v)); }

/// Median-of-3 run: repeats the solve and returns the result whose total
/// time is the median (work counters are deterministic; only wall clock
/// varies run to run).
inline HsrResult solve_median3(const Terrain& t, const HsrOptions& opt) {
  std::vector<HsrResult> runs;
  runs.reserve(3);
  for (int i = 0; i < 3; ++i) runs.push_back(hidden_surface_removal(t, opt));
  std::sort(runs.begin(), runs.end(),
            [](const HsrResult& a, const HsrResult& b) {
              return a.stats.total_s < b.stats.total_s;
            });
  return std::move(runs[1]);
}

inline std::string ms(double seconds) { return Table::num(seconds * 1e3, 2); }

inline void print_header(const char* id, const char* paper_artefact, const char* claim) {
  std::cout << "## " << id << " — " << paper_artefact << "\n"
            << "claim: " << claim << "\n\n";
  // Spin up the backend's workers and warm caches so the first table row is
  // not charged the one-time thread-creation cost.
  const Terrain warmup = make(Family::Fbm, 16);
  (void)hidden_surface_removal(warmup, {.algorithm = Algorithm::Parallel});
}

}  // namespace thsr::bench

#pragma once
/// \file common.hpp
/// Shared plumbing of the three workloads: run plan, metric records, rank
/// statistics, process memory, and output digests.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "trace.hpp"

namespace perfbench {

/// What one workload run does.
struct Plan {
  u64 seed{1};
  double seconds{10};  ///< measured closed-loop time
  int threads{1};      ///< thread budget (nproc)
  int setup_reps{1};   ///< setups timed; setup_s is their median
  bool traced{false};  ///< traced run: spans on, per-layer metrics out
  bool quick{false};   ///< tiny inputs (self-test)
  std::string work_dir;  ///< where the run may write files
};

struct Metric {
  double value{0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Result of one workload run.
struct Outcome {
  u64 attempted{0};
  u64 failed{0};
  Metrics e2e;    ///< the benchmark's end-to-end metrics (untraced runs)
  Metrics layer;  ///< per-layer metrics this workload owns (traced runs)
  std::vector<std::string> report;  ///< human-readable lines
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile q in (0, 1] of `v` (sorted copy).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The tail percentile of a latency sample: `want` when at least ten
/// samples lie beyond it, else the highest of p99/p95/p90/p75/p50 that has
/// ten beyond. `q` reports which one was used, `beyond` how many lie past.
struct Tail {
  double q{0};
  double value{0};
  std::size_t beyond{0};
};
inline Tail tail(const std::vector<double>& v, double want) {
  const double ladder[] = {0.99, 0.95, 0.90, 0.75, 0.50};
  const std::size_t n = v.size();
  for (const double q : ladder) {
    if (q > want) continue;
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (n >= rank + 10) return Tail{q, percentile(v, q), n - rank};
  }
  return Tail{0.5, percentile(v, 0.5), n / 2};
}

/// Peak resident set (VmHWM) of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Peak resident memory of the measured phase, robust to one-off spikes:
/// VmHWM is read and reset once per one-second window, and the result is
/// the median of the window peaks. (The process-wide maximum differs by
/// up to 40% between identical runs, with how glibc spreads the worker
/// threads' allocations over its arenas.)
class PeakWindows {
 public:
  /// Starts the first window, after returning the free heap pages set-up
  /// left behind to the system.
  PeakWindows() : t_(now_ns()) {
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    reset();
  }
  /// Call between operations: closes the window once a second has passed.
  void tick() {
    if (now_ns() - t_ < 1'000'000'000) return;
    peaks_.push_back(peak_rss_mb());
    reset();
    t_ = now_ns();
  }
  double median_mb() const { return peaks_.empty() ? peak_rss_mb() : median(peaks_); }

 private:
  /// VmHWM := current RSS (Linux clear_refs "5").
  static void reset() { std::ofstream("/proc/self/clear_refs") << "5"; }

  u64 t_;
  std::vector<double> peaks_;
};

/// splitmix64 finalizer: derives independent input seeds from the run seed.
inline u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over raw bytes, chainable.
inline u64 fnv1a(const void* data, std::size_t n, u64 h = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}
template <class T>
u64 fnv1a_vec(const std::vector<T>& v, u64 h) {
  return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/// Median of `reps` timed constructions; leaves the last one in `out`
/// (a std::unique_ptr, released before each construction).
template <class State, class Make>
double timed_setup(int reps, State& out, Make&& make) {
  std::vector<double> s;
  for (int i = 0; i < std::max(reps, 1); ++i) {
    out = nullptr;
    const u64 t0 = now_ns();
    out = make();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(s));
}

}  // namespace perfbench

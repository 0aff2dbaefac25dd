#pragma once
/// \file workloads.hpp
/// The benchmark's three workloads, one per product path (README.md).
///
/// Each runs its set-up `plan.setup_reps` times (setup_s is the median),
/// then a closed loop for `plan.seconds`, checking every operation's output
/// against a reference computed in set-up by an independent path. Untraced
/// runs fill `Outcome::e2e` with the end-to-end metrics; traced runs
/// alternate traced and untraced operations (the difference is the tracing
/// overhead) and fill `Outcome::layer` with the per-layer metrics the
/// workload owns.

#include <atomic>
#include <cstdio>

#include "common.hpp"

namespace perfbench {

/// Ids for spans: unique across the workloads of one process.
inline u64 next_op_id() {
  static std::atomic<u64> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// The five end-to-end metrics every workload reports.
inline void put_e2e(Outcome& out, double setup_s, double ops_per_s, double p50_ms,
                    double tail_ms, double peak_mb) {
  out.e2e["setup_s"] = {setup_s, "s"};
  out.e2e["ops_per_s"] = {ops_per_s, "1/s"};
  out.e2e["p50_ms"] = {p50_ms, "ms"};
  out.e2e["tail_ms"] = {tail_ms, "ms"};
  out.e2e["peak_rss_mb"] = {peak_mb, "MB"};
}

/// One human-readable report line: "name  value unit  (note)".
inline std::string report_line(const std::string& name, double v, const std::string& unit,
                               const std::string& note = "") {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-28s %14.4f %-6s %s", name.c_str(), v, unit.c_str(),
                note.c_str());
  return buf;
}

/// Tracing overhead in percent of the untraced median.
inline double overhead_pct(const std::vector<double>& traced, const std::vector<double>& plain) {
  const double base = median(plain);
  return base > 0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

Outcome run_viewshed(const Plan& plan);
Outcome run_serve(const Plan& plan);
Outcome run_stream(const Plan& plan);

}  // namespace perfbench

#pragma once
/// \file timing.hpp
/// Wall-clock measurement harness for the timed bench lane (bench_timed).
///
/// The work counters gate *what* the library computes; this harness is the
/// lane that measures *how fast* (bench/README.md, "Timed lane"). Protocol
/// per case: run `warmup` untimed repetitions, then `reps` timed ones, each
/// read off one Stopwatch (support/stopwatch.hpp), and report the median with interquartile range
/// (IQR) and median absolute deviation (MAD) as dispersion — medians and
/// rank statistics because scheduler noise is one-sided (a run is slowed
/// by preemption, never sped up), so the median is stable where the mean
/// drifts and the IQR flags unquiet machines instead of polluting the
/// central value.
///
/// Everything reported is integer nanoseconds, so BENCH_TIMED.json stays
/// parseable by the same flat two-level u64 reader bench_ci uses for its
/// baselines (bench_timed --diff re-reads artifacts this way).

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "flat_json.hpp"
#include "geometry/exactq.hpp"
#include "support/stopwatch.hpp"

namespace thsr::bench {

/// One case's timed repetitions, already run: rank statistics over them.
struct TimedStats {
  u64 median_ns{0};
  u64 iqr_ns{0};  ///< q75 - q25: the primary dispersion gauge
  u64 mad_ns{0};  ///< median(|x - median|): robust backup when reps < 4
  u64 min_ns{0};
  u64 reps{0};
};

/// Rank statistic at fraction f of sorted xs (nearest-rank, f in [0, 1]).
inline u64 rank_at(const std::vector<u64>& sorted, double f) {
  if (sorted.empty()) return 0;
  const auto n = sorted.size();
  auto i = static_cast<std::size_t>(f * static_cast<double>(n - 1) + 0.5);
  if (i >= n) i = n - 1;
  return sorted[i];
}

inline TimedStats stats_of(std::vector<u64> ns) {
  TimedStats s;
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  s.reps = ns.size();
  s.min_ns = ns.front();
  s.median_ns = rank_at(ns, 0.5);
  s.iqr_ns = rank_at(ns, 0.75) - rank_at(ns, 0.25);
  std::vector<u64> dev;
  dev.reserve(ns.size());
  for (const u64 x : ns) dev.push_back(x > s.median_ns ? x - s.median_ns : s.median_ns - x);
  std::sort(dev.begin(), dev.end());
  s.mad_ns = rank_at(dev, 0.5);
  return s;
}

/// Warmup + repeat a thunk, timing each repetition with a Stopwatch.
template <class F>
TimedStats measure(F&& body, int warmup, int reps) {
  for (int i = 0; i < warmup; ++i) body();
  std::vector<u64> ns;
  ns.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Stopwatch clock;
    body();
    ns.push_back(clock.nanoseconds());
  }
  return stats_of(std::move(ns));
}

/// First "model name" from /proc/cpuinfo (linux), else "unknown-cpu".
inline std::string cpu_model() {
#ifdef __linux__
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    const auto pos = line.find(':');
    if (pos != std::string::npos && line.compare(0, 10, "model name") == 0) {
      auto v = line.substr(pos + 1);
      const auto b = v.find_first_not_of(" \t");
      return b == std::string::npos ? v : v.substr(b);
    }
  }
#endif
  return "unknown-cpu";
}

/// hostname/cpu/threads triple identifying where a run happened: numbers
/// from two artifacts are only comparable when their fingerprints match.
inline std::string host_fingerprint() {
  std::string host = "unknown-host";
#ifdef __linux__
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') host = buf;
#endif
  return host + " | " + cpu_model() + " | " +
         std::to_string(std::thread::hardware_concurrency()) + " hw threads";
}

/// Current commit: $THSR_GIT_SHA, else $GITHUB_SHA, else `git rev-parse`
/// (absent .git => "unknown"). Env first so CI stamps the exact tested sha.
inline std::string git_sha() {
  for (const char* var : {"THSR_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') return v;
  }
#ifdef __linux__
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64] = {};
    const std::size_t n = fread(buf, 1, sizeof(buf) - 1, p);
    pclose(p);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
    if (sha.size() >= 7) return sha;
  }
#endif
  return "unknown";
}

inline std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  char buf[32] = {};
  std::tm tm{};
  gmtime_r(&now, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// BENCH_TIMED.json: a string-valued "meta" object (run provenance) and the
/// flat u64 "cases" object the bench_ci-style parser reads back.
inline void write_timed_json(const CaseMap& cases,
                             const std::map<std::string, std::string>& meta,
                             const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"schema\": 1,\n"
     << "  \"note\": \"wall-clock medians in integer nanoseconds; comparable only across "
        "matching host fingerprints\",\n"
     << "  \"meta\": {";
  std::size_t mi = 0;
  for (const auto& [k, v] : meta) {
    os << "\"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
    if (++mi < meta.size()) os << ", ";
  }
  os << "},\n  \"cases\": {\n";
  std::size_t ci = 0;
  for (const auto& [name, counters] : cases) {
    os << "    \"" << json_escape(name) << "\": {";
    std::size_t ki = 0;
    for (const auto& [k, v] : counters) {
      os << "\"" << k << "\": " << v;
      if (++ki < counters.size()) os << ", ";
    }
    os << "}";
    if (++ci < cases.size()) os << ",";
    os << "\n";
  }
  os << "  }\n}\n";
}

}  // namespace thsr::bench

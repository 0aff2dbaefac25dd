#pragma once
/// \file trace.hpp
/// In-memory span recorder for the benchmark's traced runs.
///
/// Spans are RAII scopes the benchmark opens around each public library
/// call it makes. When tracing is off a Span costs one relaxed atomic load;
/// when on, two steady_clock reads and one append under a mutex (the
/// benchmark records a handful of spans per operation, so contention is
/// negligible). Nothing is written until the run ends: `write_chrome_json`
/// emits Chrome trace-event JSON (chrome://tracing, Perfetto) and
/// `write_summary` a per-span-name table of counts, total, self and median
/// times.
///
/// Every span carries the id of the operation that caused it, so one
/// operation's spans can be gathered across threads: `coverage` measures
/// how much of an operation's wall time its child spans account for.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;

/// Monotonic nanoseconds (steady_clock).
u64 now_ns() noexcept;

struct TraceEvent {
  const char* name;  ///< static string: "<layer>.<call>"
  u64 t0, t1;        ///< steady_clock ns
  u64 op;            ///< operation id (spans of one operation share it)
  unsigned tid;      ///< small per-thread index
  bool reported;     ///< duration reported by the library, not timed here
};

class Tracer {
 public:
  static void enable(bool on) noexcept { on_.store(on, std::memory_order_relaxed); }
  static bool enabled() noexcept { return on_.load(std::memory_order_relaxed); }

  /// Append one finished span (thread-safe).
  static void record(const char* name, u64 t0, u64 t1, u64 op, bool reported = false);
  static std::vector<TraceEvent> events();

  /// Per operation id, the summed duration (ms) of spans named `name`.
  static std::map<u64, double> ms_by_op(std::string_view name);

  /// Share of the summed wall time of spans named `op_name` covered by the
  /// union of the other spans of the same operation (clipped to it).
  static double coverage(std::string_view op_name);

  static bool write_chrome_json(const std::string& path);
  static bool write_summary(const std::string& path);

 private:
  static std::atomic<bool> on_;
};

/// RAII span: records [construction, destruction) when tracing is on.
class Span {
 public:
  Span(const char* name, u64 op) noexcept
      : name_(name), op_(op), t0_(Tracer::enabled() ? now_ns() : 0) {}
  ~Span() {
    if (t0_ != 0) Tracer::record(name_, t0_, now_ns(), op_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  u64 op_;
  u64 t0_;
};

}  // namespace perfbench

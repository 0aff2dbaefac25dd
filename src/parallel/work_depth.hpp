#pragma once
/// \file work_depth.hpp
/// Machine-independent work accounting. The paper's bounds are stated in
/// PRAM operations; wall-clock on a 2..N-core host cannot validate them
/// directly, so the library counts the operations that dominate each bound
/// (crossings found, persistent nodes created, oracle queries, envelope
/// pieces touched) in thread-local buckets with negligible overhead. Any
/// thread — pool worker or external caller — registers its bucket lazily
/// on first count(); buckets outlive their threads so totals survive pool
/// resizes. Benches E1/E3/E4/E8 report these counters against the claimed
/// asymptotics, and bench_ci gates CI on them (they are exactly schedule-,
/// backend-, and machine-independent).

#include <array>
#include <cstdint>
#include <string_view>

#include "geometry/exactq.hpp"

namespace thsr {

enum class Op : unsigned {
  Crossing = 0,     ///< envelope/profile crossings discovered
  TreapNode,        ///< treap nodes constructed: persistent path copies and
                    ///< fresh leaves (single-version splices rewrite their
                    ///< paths in place and construct only leaves)
  OracleQuery,      ///< first-crossing / next-transition queries issued
  OracleStep,       ///< tree nodes visited inside oracle descents
  EnvPiece,         ///< envelope pieces produced by phase-1 merges
  MergeEvent,       ///< above/below transition events in phase-2 merges
  // --- telemetry (not "work"): excluded from Counters::total() so that the
  // counted-work totals the shard duplication bound and benches E1/E4 reason
  // about keep their pre-filter meaning. Still baseline-gated per key.
  FilterFast,       ///< predicates decided by the f64 filter (no i128 math)
  FilterExact,      ///< predicates that fell back to the exact i128 path
  kCount,
};

/// Ops in [0, kWorkOpCount) are work; the rest are telemetry.
inline constexpr std::size_t kWorkOpCount = static_cast<std::size_t>(Op::FilterFast);

inline constexpr std::array<std::string_view, static_cast<std::size_t>(Op::kCount)> kOpNames{
    "crossing",  "treap_node",  "oracle_query", "oracle_step",
    "env_piece", "merge_event", "filter_fast",  "filter_exact_fallback"};

struct Counters {
  std::array<u64, static_cast<std::size_t>(Op::kCount)> v{};
  u64 operator[](Op op) const noexcept { return v[static_cast<std::size_t>(op)]; }
  /// Total counted *work* (telemetry ops excluded; see Op).
  u64 total() const noexcept {
    u64 s = 0;
    for (std::size_t i = 0; i < kWorkOpCount; ++i) s += v[i];
    return s;
  }
  Counters& operator+=(const Counters& o) noexcept {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += o.v[i];
    return *this;
  }
  Counters& operator-=(const Counters& o) noexcept {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] -= o.v[i];
    return *this;
  }
  friend bool operator==(const Counters& a, const Counters& b) noexcept { return a.v == b.v; }
};

namespace work {

namespace detail {
/// Slow path, once per thread: allocate this thread's counter block and
/// register it with the global snapshot/reset registry (work_depth.cpp;
/// blocks are never destroyed so totals survive thread exits).
Counters* register_thread() noexcept;

/// The calling thread's counter block. The cached thread_local pointer
/// keeps the inline count() below at a guard check, a TLS load and one
/// add — cheap enough to sit on the predicate-filter fast path.
inline Counters& local() noexcept {
  thread_local Counters* c = register_thread();
  return *c;
}
}  // namespace detail

/// Record `n` operations of kind `op` on the calling thread. O(1), no
/// locks, fully inline.
inline void count(Op op, u64 n = 1) noexcept {
  detail::local().v[static_cast<std::size_t>(op)] += n;
}

/// Sum all threads' counters accumulated since the last reset.
Counters snapshot() noexcept;

/// The calling thread's counters only. Deltas of this are exact for work
/// that ran entirely on the calling thread (e.g. a solve at threads = 1),
/// and are immune to ops counted concurrently by other threads — which
/// global snapshot() deltas are not.
Counters local_snapshot() noexcept;

/// Zero all threads' counters. Only for single-threaded drivers: a thread
/// that is mid-measurement sees its before/after delta wrap.
void reset() noexcept;

}  // namespace work
}  // namespace thsr

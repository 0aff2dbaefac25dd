#pragma once
/// \file task_allocator.hpp
/// Emulation of the paper's processor-allocation problem. Lemmas 2.1/2.2
/// charge every phase a term t_{p,r}: the time to hand r units of work,
/// split into unequal tasks, to p processors. On a real shared-memory
/// machine that cost is the scheduler's: this module runs N synthetic tasks
/// of prescribed sizes on the pool — its dynamic-chunk analogue of each of
/// four classic schedules — and reports the measured overhead over the
/// ideal work/p, which bench table_e9_slowdown tabulates against the
/// lemma's O(r log r / p) allocation bound.

#include <span>

#include "geometry/exactq.hpp"

namespace thsr::par {

enum class Schedule { StaticBlock, StaticCyclic, Dynamic, Guided };

struct AllocReport {
  double wall_s{0};      ///< measured makespan
  double serial_s{0};    ///< measured serial execution time (p=1 reference)
  double ideal_s{0};     ///< serial_s / p
  double overhead_s{0};  ///< wall_s - ideal_s (the t_{p,N} analogue)
  u64 tasks{0};
  u64 total_cost{0};
  /// Tasks the measured (parallel) pass actually ran — always equals
  /// `tasks` when the schedule dispatched correctly. The deterministic
  /// completion condition tests assert instead of wall-clock ratios, which
  /// are meaningless under sanitizers or on oversubscribed hosts.
  u64 executed{0};
};

/// Run tasks whose cost is a spin of `costs[i]` iterations under `sched`
/// with `p` workers.
AllocReport run_synthetic_tasks(std::span<const u32> costs, int p, Schedule sched);

const char* schedule_name(Schedule s) noexcept;

}  // namespace thsr::par

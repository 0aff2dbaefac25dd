#pragma once
/// \file stopwatch.hpp
/// The one clock behind every reported time: solver stats, the sharded and
/// serving layers' timings, and every bench driver read a Stopwatch, so
/// two numbers from anywhere in the repo were measured the same way.

#include <chrono>
#include <cstdint>

namespace thsr {

/// Monotonic wall-clock stopwatch, running from construction.
class Stopwatch {
 public:
  /// Seconds since construction.
  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  /// Whole nanoseconds since construction.
  std::uint64_t nanoseconds() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_).count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point t0_{Clock::now()};
};

}  // namespace thsr

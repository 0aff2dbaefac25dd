#pragma once
/// \file exactq.hpp
/// Exact rational abscissae over __int128.
///
/// All input coordinates are integers with magnitude <= kMaxCoord (2^21).
/// Every breakpoint an algorithm in this library ever constructs is the
/// crossing of two *input* lines, so its y-coordinate is a rational p/q with
/// |p| <= 2^67 and 0 < q <= 2^45 (see DESIGN.md section 5). Cross-multiplied
/// comparisons of such rationals peak below 2^113 and therefore fit in
/// __int128 — no arbitrary precision library is needed and all predicates in
/// geometry/predicates.hpp are exact.

#include <cstdint>
#include <string>

#include "support/check.hpp"

namespace thsr {

using i32 = std::int32_t;
using i64 = std::int64_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i128 = __int128;

/// Contract on input coordinates (enforced by Terrain validation).
inline constexpr i64 kMaxCoord = i64{1} << 21;

/// Sign of a 128-bit integer: -1, 0, +1.
constexpr int sgn128(i128 v) noexcept { return (v > 0) - (v < 0); }

/// Checked 128-bit multiply (debug builds trap on overflow; release builds
/// rely on the magnitude analysis in DESIGN.md section 5).
inline i128 mul128(i128 a, i128 b) noexcept {
#ifndef NDEBUG
  i128 r;
  THSR_DCHECK(!__builtin_mul_overflow(a, b, &r));
  return r;
#else
  return a * b;
#endif
}

/// Exact rational y-coordinate p/q with q > 0.
///
/// QY is a value type ordered by the exact rational order. It is *not* a
/// general bignum rational: magnitudes are bounded by construction (input
/// integers or first-order line crossings) and no arithmetic that would
/// increase the degree is exposed.
struct QY {
  i128 p{0};
  i128 q{1};
  /// Round-to-nearest double mirrors of p and q, paid once at construction
  /// so the predicate filter (geometry/filter.hpp) never converts __int128
  /// on its fast path. q <= 2^45 converts exactly; p may round once, which
  /// the filter's error bounds absorb. Equal (p, q) implies equal (pd, qd),
  /// so the mirrors never add distinctions.
  double pd{0};
  double qd{1};

  constexpr QY() = default;
  constexpr QY(i128 num, i128 den)
      : p(den < 0 ? -num : num),
        q(den < 0 ? -den : den),
        pd(static_cast<double>(p)),
        qd(static_cast<double>(q)) {
    THSR_DCHECK(q > 0);
  }

  /// Exact integer value.
  static constexpr QY of(i64 v) noexcept { return QY(v, 1); }

  /// True when the value is an integer that fits i64 (used by tests/IO).
  bool is_integer() const noexcept { return p % q == 0; }

  /// Nearest double (exact for integers up to 2^53): the quotient of the
  /// cached mirrors, the same double as converting p and q afresh.
  double approx() const noexcept { return pd / qd; }
};

/// Three-way exact compare: sign(a - b).
inline int cmp(const QY& a, const QY& b) noexcept {
  return sgn128(mul128(a.p, b.q) - mul128(b.p, a.q));
}
inline int cmp(const QY& a, i64 b) noexcept { return sgn128(a.p - mul128(a.q, b)); }

inline bool operator==(const QY& a, const QY& b) noexcept { return cmp(a, b) == 0; }
inline bool operator!=(const QY& a, const QY& b) noexcept { return cmp(a, b) != 0; }
inline bool operator<(const QY& a, const QY& b) noexcept { return cmp(a, b) < 0; }
inline bool operator<=(const QY& a, const QY& b) noexcept { return cmp(a, b) <= 0; }
inline bool operator>(const QY& a, const QY& b) noexcept { return cmp(a, b) > 0; }
inline bool operator>=(const QY& a, const QY& b) noexcept { return cmp(a, b) >= 0; }

inline const QY& qmin(const QY& a, const QY& b) noexcept { return b < a ? b : a; }
inline const QY& qmax(const QY& a, const QY& b) noexcept { return a < b ? b : a; }

/// Human-readable "p/q" (or plain integer) for diagnostics and golden tests.
std::string to_string(const QY& v);

}  // namespace thsr

#pragma once
/// \file filter.hpp
/// Semi-static floating-point filters for the exact predicates of
/// geometry/predicates.hpp.
///
/// Classic arithmetic filtering: evaluate each predicate's deciding
/// determinant in double precision alongside a forward error bound; when the
/// computed magnitude clears the bound the sign is certain and the exact
/// `__int128` evaluation is skipped. Inconclusive signs fall back to the
/// exact code, which remains the single source of truth — every map and
/// counter the library produces is bit-identical with the filter on or off
/// (enforced by bench_ci and the THSR_NO_FILTER=1 CI leg).
///
/// The error bounds are *semi-static*: the epsilon constants below are
/// static consequences of the DESIGN.md section 5 magnitude analysis
/// (|coordinate| <= 2^21, breakpoint numerators <= 2^67, denominators
/// <= 2^45), while the magnitude factor is computed per call from the
/// operands already in hand. Section 5's filter table derives each bound.
///
/// Determinism contract: filter decisions are pure functions of operand
/// values — no schedule, thread-count, or backend dependence — and the
/// library compiles with -ffp-contract=off so gcc and clang round every
/// intermediate identically. That makes the telemetry counters
/// (Op::FilterFast / Op::FilterExact) baseline-gateable like any work
/// counter.
///
/// Escape hatch: set the THSR_NO_FILTER environment variable to anything
/// but "0" to force every predicate down the exact path.

#include <cmath>

#include "geometry/exactq.hpp"
#include "parallel/work_depth.hpp"

namespace thsr {

struct Seg2;  // geometry/predicates.hpp; SegF construction lives there too.

namespace filt {

/// Sentinel: the double evaluation could not certify a sign.
inline constexpr int kUncertain = 2;

/// 2^-53, the unit roundoff of double.
inline constexpr double kUlp = 0x1p-53;

/// Error-bound constants (DESIGN.md section 5, filter table). Each is a
/// deliberately generous power-of-two cover of the worst-case relative
/// error of the corresponding evaluation scheme:
///  * kEps2 = 8u  covers 2-product differences x - y whose operands carry
///    at most ~5u of accumulated relative error (cmp(QY,QY), the same_line
///    C-row, crossing numerators);
///  * kEps4 = 16u covers the nested value schemes (cmp_value_at,
///    cmp_value_vs_int, crossing-vs-bound) whose operands carry at most
///    ~9u.
inline constexpr double kEps2 = 0x1p-50;
inline constexpr double kEps4 = 0x1p-49;

/// One-time read of the THSR_NO_FILTER environment variable (any value but
/// "0" disables). Out of line so <cstdlib> stays out of this hot header.
bool runtime_enabled_init() noexcept;

/// True when the fast path may be attempted.
inline bool enabled() noexcept {
  static const bool on = runtime_enabled_init();
  return on;
}

/// Telemetry: one FilterFast per predicate decided without exact
/// arithmetic, one FilterExact per fallback. Only counted while enabled()
/// — a disabled run reports zeros, which the bench_ci baseline
/// check treats as a (non-failing) drop. work::count is fully inline
/// (work_depth.hpp), so each note is a thread-local add.
inline void note_fast() noexcept { work::count(Op::FilterFast); }
inline void note_exact() noexcept { work::count(Op::FilterExact); }

/// sign(d) when |d| certainly exceeds the rounding error `bound`;
/// kUncertain otherwise (including d == bound == 0, the exact-tie case).
inline int certain_sign(double d, double bound) noexcept {
  if (d > bound) return 1;
  if (d < -bound) return -1;
  return kUncertain;
}

/// Double view of an abscissa — a copy of QY's cached mirrors (pd/qd, paid
/// once at QY construction). q <= 2^45 converts exactly; p may round
/// (|p| <= 2^67), which the epsilon constants account for.
struct YF {
  double p{0}, q{1};
  YF() = default;
  explicit YF(const QY& y) noexcept : p(y.pd), q(y.qd) {}
};

/// Cached double view of a segment's line coefficients A*u - B*v = C.
/// A, B (<= 2^22) and C (<= 2^44) all convert exactly. Constructed from a
/// Seg2 in predicates.hpp (the Seg2 definition lives there).
struct SegF {
  double A{0}, B{1}, C{0};
};

/// sign(a - b) for rationals a = ap/aq, b = bp/bq (aq, bq > 0), or
/// kUncertain. Scheme: d = fl(fl(ap*bq) - fl(bp*aq)); each product carries
/// <= ~3u relative error (one rounded conversion, cached in QY, + one
/// rounded multiply), the subtraction one more, so kEps2 * (|x| + |y|)
/// covers it. No __int128 touches the fast path.
inline int try_cmp(const QY& a, const QY& b) noexcept {
  const double x = a.pd * b.qd;
  const double y = b.pd * a.qd;
  return certain_sign(x - y, kEps2 * (std::fabs(x) + std::fabs(y)));
}

/// try_cmp against a cached double view of b (merge loops hold the current
/// abscissa as a YF and stream piece endpoints past it).
inline int try_cmp(const QY& a, const YF& b) noexcept {
  const double x = a.pd * b.q;
  const double y = b.p * a.qd;
  return certain_sign(x - y, kEps2 * (std::fabs(x) + std::fabs(y)));
}

/// Approximate value numerator f = A*p - C*q of a segment at abscissa y
/// (the shared sub-expression of cmp_value_at / cmp_value_vs_int; the
/// exact twin is exact::value_numerator). `mag` bounds the scheme's
/// magnitude for the error bound: |fl(A*p)| + |fl(C*q)|.
struct NumF {
  double v, mag;
};
inline NumF value_numerator(const SegF& s, const YF& y) noexcept {
  const double t1 = s.A * y.p;
  const double t2 = s.C * y.q;
  return {t1 - t2, std::fabs(t1) + std::fabs(t2)};
}

/// sign(v_a(y) - v_b(y)) over the shared denominator, or kUncertain.
/// d = fl(fa*B_b - fb*B_a); fa, fb carry <= ~4u each relative to their
/// magnitudes, so kEps4 * (mag_a*B_b + mag_b*B_a) covers the total.
inline int try_cmp_value_at(const SegF& a, const SegF& b, const YF& y) noexcept {
  const NumF fa = value_numerator(a, y);
  const NumF fb = value_numerator(b, y);
  const double d = fa.v * b.B - fb.v * a.B;
  return certain_sign(d, kEps4 * (fa.mag * b.B + fb.mag * a.B));
}

/// sign(v_a(y) - w), or kUncertain.
inline int try_cmp_value_vs_int(const SegF& a, const YF& y, i64 w) noexcept {
  const NumF fa = value_numerator(a, y);
  const double t = (a.B * y.q) * static_cast<double>(w);
  return certain_sign(fa.v - t, kEps4 * (fa.mag + std::fabs(t)));
}

/// sign(slope_a - slope_b), always certain: A*B products are integers
/// <= 2^44 and their difference is an integer <= 2^45, so every operation
/// is exact in double (no fallback exists for this predicate).
inline int try_cmp_slope(const SegF& a, const SegF& b) noexcept {
  const double d = a.A * b.B - b.A * a.B;
  return (d > 0) - (d < 0);
}

/// Crossing numerator p = C_a*B_b - C_b*B_a of two supporting lines, with
/// its magnitude bound (products <= 2^66 round once each).
inline NumF crossing_numerator(const SegF& a, const SegF& b) noexcept {
  const double t1 = a.C * b.B;
  const double t2 = b.C * a.B;
  return {t1 - t2, std::fabs(t1) + std::fabs(t2)};
}

/// sign(num/det - b) for a crossing abscissa num/det (det != 0, sign of
/// det known exactly — see try_cmp_slope) against a rational bound b given
/// as its double view bf, or kUncertain. Multiplying through by det*b.q
/// flips the sign with det.
inline int try_cmp_crossing(const NumF& num, double det, const YF& bf) noexcept {
  const double x = num.v * bf.q;
  const double y = bf.p * det;
  const int s = certain_sign(x - y, kEps4 * (num.mag * bf.q + std::fabs(y)));
  if (s == kUncertain) return kUncertain;
  return det > 0 ? s : -s;
}

/// Filtered drop-in for thsr::cmp(QY, QY) with telemetry. The
/// representation-equality pre-check settles the extremely common case of
/// comparing two copies of the same breakpoint without any arithmetic.
inline int cmp(const QY& a, const QY& b) noexcept {
  if (enabled()) {
    if (a.p == b.p && a.q == b.q) {
      note_fast();
      return 0;
    }
    const int s = try_cmp(a, b);
    if (s != kUncertain) {
      note_fast();
      return s;
    }
    note_exact();
  }
  return thsr::cmp(a, b);
}

/// cmp against a cached YF view of b (bitwise pre-check still uses b).
inline int cmp(const QY& a, const QY& b, const YF& bf) noexcept {
  if (enabled()) {
    if (a.p == b.p && a.q == b.q) {
      note_fast();
      return 0;
    }
    const int s = try_cmp(a, bf);
    if (s != kUncertain) {
      note_fast();
      return s;
    }
    note_exact();
  }
  return thsr::cmp(a, b);
}

inline const QY& qmin(const QY& a, const QY& b) noexcept { return filt::cmp(b, a) < 0 ? b : a; }
inline const QY& qmax(const QY& a, const QY& b) noexcept { return filt::cmp(a, b) < 0 ? b : a; }

}  // namespace filt
}  // namespace thsr

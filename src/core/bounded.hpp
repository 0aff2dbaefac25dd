#pragma once
/// \file bounded.hpp
/// Resolution-bounded solve support: the pixel budget and the exact
/// sample-interval predicate that drives pruning.
///
/// A bounded solve (HsrOptions::pixel_budget) targets a known raster
/// resolution: only the visibility structure *at the raster's exact sample
/// ordinates* must survive. Structure confined to a closed y-interval that
/// contains no sample ordinate is invisible to the scan-converter — the
/// raster buckets visible pieces by closed-interval sample containment and
/// evaluates crossings at sample ordinates only (src/raster/raster.cpp) —
/// so the solver may coalesce envelope pieces, skip persistent splices, and
/// drop visible pieces inside such intervals without changing a single
/// output pixel. DESIGN.md section 1.12 states the invariant and proves the
/// bitwise raster identity; the threshold predicate below is its exact
/// arithmetic realization (magnitudes re-derived from section 5).
///
/// The budget describes only the y (image column) lattice: columns are
/// independent 1-D problems, and piece/crossing materialization in the
/// object-space map is governed purely by y-extent. The z resolution never
/// enters the pruning decision.

#include <stdexcept>

#include "geometry/exactq.hpp"

namespace thsr {

/// Mirror of raster::kMaxRasterAxis (src/raster/raster.hpp keeps the two in
/// sync with a static_assert): caps width*supersample so the predicate
/// magnitudes below stay inside __int128.
inline constexpr u32 kMaxBudgetSamples = 4096;

/// The y-sample lattice of a target raster: `y_samples` = width*supersample
/// uniform sub-columns over the closed image window [y_lo, y_hi]. Sample i
/// (0 <= i < y_samples) sits at the exact rational ordinate
///
///     s_i = y_lo + (2i+1)(y_hi - y_lo) / (2 * y_samples),
///
/// identical — as an exact rational — to raster::sample_y of the same
/// window/resolution (raster::pixel_budget builds one from RasterOptions).
struct PixelBudget {
  i64 y_lo{0};       ///< window west bound (inclusive), |y_lo| <= 2*kMaxCoord
  i64 y_hi{1};       ///< window east bound (inclusive), y_lo < y_hi
  u32 y_samples{1};  ///< width*supersample, in [1, kMaxBudgetSamples]

  friend bool operator==(const PixelBudget&, const PixelBudget&) = default;
};

/// Exact pruning predicate for one budget. Stateless beyond the budget; a
/// single instance is shared read-only by every thread of a solve. The
/// budget arrives from callers (e.g. a QueryServer query), so a malformed
/// one throws std::invalid_argument rather than aborting.
///
/// Width analysis (DESIGN.md section 1.12). Sample i sits at s_i = y_lo +
/// (2i+1)E/D with E = y_hi - y_lo <= 2^23 and D = 2*y_samples <= 2^13. For a
/// breakpoint y = p/q (|p| <= 2^67, 0 < q <= 2^45 by section 5):
///
///     s_i >= y  <=>  (2i+1) * E * q >= (p - y_lo * q) * D.
///
/// |p - y_lo*q| <= 2^67 + 2^22 * 2^45 = 2^68, so the right side is below
/// 2^81; the left side is below 2^13 * 2^23 * 2^45 = 2^81. Both fit __int128
/// with > 45 bits to spare — the predicate is exact with no fallback tier.
class BoundedPrune {
 public:
  explicit BoundedPrune(const PixelBudget& b)
      : y_lo_(b.y_lo), extent_(checked_extent(b)), n_(b.y_samples) {}

  PixelBudget budget() const noexcept { return PixelBudget{y_lo_, y_lo_ + extent_, n_}; }

  /// True when the closed interval [y0, y1] contains no sample ordinate —
  /// the license to coalesce/skip/drop structure on it. Requires y0 <= y1.
  /// Exact: two to four i128 multiplies, no rounding tier.
  bool sample_free(const QY& y0, const QY& y1) const noexcept {
    // Smallest i with s_i >= y0: (2i+1)*E*q0 >= t0 := (p0 - y_lo*q0)*D.
    const i128 d = 2 * i128{n_};
    const i128 eq0 = mul128(extent_, y0.q);  // > 0
    const i128 t0 = mul128(y0.p - mul128(y_lo_, y0.q), d);
    const i128 num = t0 - eq0;  // i >= num / (2*E*q0)
    const i128 den = 2 * eq0;
    const i128 i0 = num <= 0 ? 0 : (num + den - 1) / den;  // ceil, num > 0
    if (i0 >= i128{n_}) return true;  // every sample lies left of y0
    // Sample i0 is the first at or right of y0; [y0, y1] is sample-free
    // exactly when it still lies strictly right of y1.
    const i128 lhs = mul128(2 * i0 + 1, mul128(extent_, y1.q));
    const i128 rhs = mul128(y1.p - mul128(y_lo_, y1.q), d);
    return lhs > rhs;
  }

 private:
  /// Validates `b` (before any arithmetic on it) and returns y_hi - y_lo.
  static i64 checked_extent(const PixelBudget& b) {
    if (!(b.y_lo < b.y_hi)) throw std::invalid_argument("PixelBudget: requires y_lo < y_hi");
    if (b.y_samples < 1 || b.y_samples > kMaxBudgetSamples) {
      throw std::invalid_argument("PixelBudget: y_samples must be in [1, kMaxBudgetSamples]");
    }
    if (b.y_lo < -2 * kMaxCoord || b.y_hi > 2 * kMaxCoord) {
      throw std::invalid_argument("PixelBudget: window exceeds 2*kMaxCoord");
    }
    return b.y_hi - b.y_lo;
  }

  i64 y_lo_;    ///< window west bound
  i64 extent_;  ///< E = y_hi - y_lo > 0
  u32 n_;       ///< sample count, D = 2n
};

}  // namespace thsr

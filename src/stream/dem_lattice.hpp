#pragma once
/// \file dem_lattice.hpp
/// The **streaming lattice**: the DEM-to-terrain embedding the out-of-core
/// pipeline uses (DESIGN.md section 1.11). It is the transpose of the
/// in-core `terrain_from_asc` convention — DEM *rows* run along the image
/// y axis and DEM *columns* along the depth (x) axis, the viewer due east
/// at x = +infinity:
///
///     x(cc)     = 8 * cc
///     y(rr, cc) = ystep * (rr - row_base) + 8 * cc,   ystep = 8*(cols+2)
///     z(rr, cc) = llround((h - z_offset) * z_scale)
///
/// Two properties make this the streaming shape:
///
/// 1. **Rows occupy disjoint y-ranges** (within a row consecutive samples
///    differ by 8; across rows by at least ystep - 8*(cols-1) = 24), so a
///    y-slab decomposition is exactly a *row band* — aligned with the
///    row-major order .asc payloads stream in. Geometry touching a y
///    ordinate q spans at most two consecutive cell rows (floor(q/ystep)
///    and its predecessor), so the slab owning samples [ystep*r_s,
///    ystep*r_{s+1}) needs only grid rows [max(0, r_s - 1), r_{s+1}] —
///    a bounded window however large the full grid is.
/// 2. **Coordinates are window-relative** (`row_base` = the window's first
///    grid row), so the section-5 / filter.hpp magnitude budget
///    (|coordinate| <= kMaxCoord = 2^21) constrains the *slab window*,
///    not the whole DEM: global row indices and the global image window
///    may run to ~1.4e17 cells while every exact predicate still operates
///    on small integers. The y-shift between windows is an exact integer
///    multiple of ystep, and every exact kernel (sample ordinates, segment
///    evaluation, plane depth) is shift-invariant in y, so rebased slabs
///    rasterize bit-identically to a monolithic build (tests/test_stream).
///
/// No edge is ever parallel to the viewing axis (dy != 0 throughout —
/// the role the in-core shear constant plays), and the (cc, rr) -> (x, y)
/// map is linear and invertible, so ground triangles stay non-degenerate
/// and ground positions distinct — `Terrain::from_triangles` invariants
/// hold by construction.
///
/// Triangle ids are **global**: cells are enumerated row-major over the
/// whole grid (two triangles per NODATA-free cell, the generators'
/// alternating diagonal by global (rr + cc) parity), and a window build
/// offsets its local ids by `tri_base` — the number of triangles in cell
/// rows above it. Streamed and monolithic rasters therefore agree on ids
/// bit-for-bit. The id space is u32 (raster::kNoTriangle reserved), which
/// caps total triangles at 2^32 - 2 — ~2.1e9 data cells, far beyond the
/// resident budget this pipeline targets per box.

#include <optional>
#include <span>
#include <vector>

#include "raster/raster.hpp"
#include "terrain/terrain.hpp"

namespace thsr::stream {

/// Ground spacing of the streaming lattice (the generators' spacing).
inline constexpr i64 kLatticeSpacing = 8;

/// y distance between consecutive DEM rows: 8*(cols+2), strictly clearing
/// a row's own y-extent (8*(cols-1)) so rows never interleave in y.
i64 lattice_ystep(u32 cols);

/// Largest grid-row count a single window may span before its rebased y
/// coordinates leave the exact-arithmetic budget (|y| <= kMaxCoord).
/// Streaming callers derive their default slab_rows from this; anything
/// larger is rejected with std::runtime_error at build time.
/// \throws std::invalid_argument when cols < 2.
u32 max_window_rows(u32 cols);

/// Height quantization for the streaming path: fixed offset and scale
/// (never per-slab normalization — every slab and the monolithic
/// reference must quantize identically).
struct LatticeOptions {
  double z_offset{0.0};  ///< subtracted from each height before scaling
  double z_scale{1.0};   ///< multiplier applied before rounding
};

/// llround((v - z_offset) * z_scale); throws std::runtime_error when the
/// result is non-finite or outside [-kMaxCoord, kMaxCoord].
i64 quantize_height(double v, const LatticeOptions& opt);

/// One window's worth of terrain, built from a contiguous row range.
struct SlabBuild {
  Terrain terrain;              ///< empty (0 triangles) when the window is all NODATA
  std::vector<u32> global_tri;  ///< local -> global source triangle ids
  u32 row_lo{0}, row_hi{0};     ///< grid rows [row_lo, row_hi) this build covers
  u64 tri_count{0};             ///< triangles in the window
  u64 last_row_tris{0};         ///< of those, in the last cell row (row_hi-2):
                                ///< the rows the *next* overlapping window recounts
  bool empty() const { return tri_count == 0; }
};

/// Triangles `build_rows` creates from a `rows`-row window (row-major
/// `values`): two per cell whose four corners hold data. Lets the stream
/// fix every window's `tri_base` in slab order before any window is built.
/// \throws std::invalid_argument when `values` holds fewer than rows x cols
///         samples.
u64 window_triangles(u32 cols, u32 rows, std::span<const double> values,
                     std::optional<double> nodata);

/// Build grid rows [row_lo, row_hi) (row-major `values`, (row_hi-row_lo)
/// * cols samples) on the streaming lattice with row_base = row_lo.
/// `tri_base` is the global id of the window's first triangle — the total
/// triangle count of all cell rows above row_lo.
/// \throws std::invalid_argument when cols < 2, row_lo >= row_hi, or
///         `values` is short; std::runtime_error when the window exceeds
///         max_window_rows(cols), a height leaves the coordinate range, or
///         the id space overflows u32.
SlabBuild build_rows(u32 cols, u32 row_lo, u32 row_hi, std::span<const double> values,
                     std::optional<double> nodata, u64 tri_base, const LatticeOptions& opt = {});

/// The whole grid as one terrain (row_base = 0, tri_base = 0): the
/// monolithic reference the property tests compare streamed output
/// against. Only valid while `rows` fits max_window_rows(cols) — the
/// in-core ceiling the streaming pipeline exists to lift.
Terrain terrain_from_rows(u32 cols, u32 rows, std::span<const double> values,
                          std::optional<double> nodata, const LatticeOptions& opt = {});

/// The global image window of a rows x cols grid on the streaming
/// lattice, with the quantized height range [z_lo, z_hi]: y covers
/// [0, ystep*(rows-1) + 8*(cols-1)], both extents padded (hi side) to odd
/// exactly like raster::default_window so no sample ordinate is an
/// integer. Streamed and reference rasterizations must both receive this
/// window explicitly (the reference's default_window would differ).
/// \throws std::invalid_argument when cols < 2, rows < 2 or z_lo > z_hi.
raster::ImageWindow stream_window(u32 cols, u32 rows, i64 z_lo, i64 z_hi);

}  // namespace thsr::stream

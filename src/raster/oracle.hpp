#pragma once
/// \file oracle.hpp
/// Brute-force per-pixel ray-cast reference for the raster subsystem: a
/// first-hit ray caster over the raw triangle soup, entirely independent
/// of the VisibilityMap and of the scan-converter's staircase logic. It
/// exists to be *slow and obviously right* — the correctness oracle
/// tests/test_raster.cpp and the raster_viewshed example compare
/// `rasterize` against on small inputs (the raster analogue of the
/// Reference algorithm's role for the solvers).
///
/// Semantics (shared with raster.hpp): a sample (y, z) shows the triangle
/// whose surface the viewing ray from x = +infinity crosses first *from
/// above* — the terrain sheet is one-sided, so a ray sliding under a
/// front face and striking an underside renders background, exactly as
/// the object-space map (which knows nothing below the visible surface)
/// implies. Per image column the oracle intersects every triangle with
/// the column plane, orders the resulting surface intervals near-to-far
/// by exact comparison of their boundary crossings, and reports the first
/// interval whose surface rises through the sample height. Sampling
/// (sample_y/sample_z), depth evaluation (plane_depth), and pixel
/// aggregation are the shared raster.hpp helpers, so agreeing images are
/// bit-identical, depths included.
///
/// Cost: O(width·s·(n log n + height·s·X)) with X the triangles per
/// column — strictly a test/debug tool.

#include "raster/raster.hpp"

namespace thsr::raster {

/// Ray-cast `t` at the resolution/window of `opt` (same defaults as
/// rasterize). The returned raster's `crossings` stat is 0 — the oracle
/// scans no visible pieces.
/// \throws std::invalid_argument when `opt` fails validate().
ImageRaster raycast_reference(const Terrain& t, const RasterOptions& opt = {});

}  // namespace thsr::raster

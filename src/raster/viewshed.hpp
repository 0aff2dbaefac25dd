#pragma once
/// \file viewshed.hpp
/// Georeferenced viewshed grids from a solved VisibilityMap: for every
/// sample of the (strided) source DEM, how much of the terrain surface
/// around that sample is visible from the viewer at x = +infinity. This
/// is the raster *deliverable* of grid-terrain visibility work (Haverkort
/// & Toma's massive-grid comparison takes exactly this shape), registered
/// to the source `.asc` georeferencing via the AscMapping that
/// `terrain_from_asc` emits — the output loads into any GIS tool on top
/// of the DEM it came from.
///
/// The measure is object-space and exact in provenance: a DEM sample's
/// value is the visible fraction of the *image-plane length* of its
/// incident terrain edges (non-sliver edges weigh their y-extent, sliver
/// edges their z-extent with an all-or-nothing verdict — DESIGN.md
/// section 4.5), read directly off the map's visible pieces. No ray is
/// ever re-cast. Fractions are accumulated in double (reporting
/// precision); the *boolean* grid — visible iff any incident edge has a
/// visible piece — is exact, and is what the sharded-equality tests pin
/// bitwise (fractional grids agree to accumulation roundoff across piece
/// splits at slab cuts).
///
/// NODATA propagates: a DEM sample that produced no terrain vertex (a
/// hole) gets `ViewshedOptions::nodata`, and the output grid declares
/// that value in its header.

#include "core/visibility.hpp"
#include "terrain/asc_io.hpp"
#include "terrain/terrain.hpp"

namespace thsr::raster {

/// Viewshed grid parameters.
struct ViewshedOptions {
  bool boolean_grid{false};  ///< emit {0, 1} (any incident edge visible)
                             ///< instead of the visible-length fraction
  double nodata{-1.0};       ///< value written for NODATA (hole) samples
};

/// Build the viewshed grid of `m` (a solved map of `t`, which must have
/// been built through `terrain_from_asc` with `reg` as its mapping).
/// Returns an AscGrid with `reg`'s (strided) georeferencing: nrows x
/// ncols samples in [0, 1] (or {0, 1} in boolean mode), NODATA samples
/// set to `opt.nodata`. O(n + k) — one pass over edges and pieces, one
/// pass over the grid.
/// \throws std::invalid_argument when `reg` has no rows or columns, its
///         `vertex` table does not hold rows * cols entries or names a
///         vertex `t` lacks, or `m` was not solved from `t`.
AscGrid viewshed_grid(const Terrain& t, const VisibilityMap& m, const AscMapping& reg,
                      const ViewshedOptions& opt = {});

}  // namespace thsr::raster

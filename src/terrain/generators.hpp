#pragma once
/// \file generators.hpp
/// Synthetic terrain families with *tunable output size* k. The paper's
/// central claim is output-size sensitivity, so the workload generator must
/// span the whole k/n spectrum: `ridge_front` (k << n, one wall occludes a
/// rough interior), `fbm` (realistic GIS relief, k = Theta(n) mixed),
/// `terrace_back` (k ~ n, amphitheatre fully visible), `spikes` (k tuned by
/// spike density), `valley`, and `skyline` (plateaus and exact ties, the
/// degeneracy stress). All are deterministic in (family, grid, seed).
///
/// Grids are built on a sheared lattice y' = K*j + x(i) by default, which is
/// how the generator realizes "general position": no edge is parallel to the
/// viewing axis, yet coordinates stay integral (DESIGN.md section 1).
/// Setting shear=false yields axis-aligned grids whose x-rows are degenerate
/// "sliver" edges — the degeneracy test path.

#include <string>

#include "terrain/terrain.hpp"

namespace thsr {

enum class Family { Fbm, RidgeFront, TerraceBack, Spikes, Valley, Skyline };

struct GenOptions {
  Family family{Family::Fbm};
  u32 grid{32};          ///< vertices per side; n_edges ~ 3*(grid-1)^2
  u64 seed{1};
  i64 amplitude{0};      ///< max height; 0 = auto (4 * grid)
  bool shear{true};      ///< general-position lattice (no sliver edges)
  bool jitter{false};    ///< perturb interior vertices by ±1 lattice unit:
                         ///< irregular TINs instead of a regular lattice
                         ///< (triangle orientations provably survive, see
                         ///< generators.cpp); boundary vertices stay fixed
  double spike_density{0.05};  ///< Spikes family only
};

/// Build a terrain of the requested family. Deterministic in
/// (family, grid, seed, shear, jitter); O(grid^2) vertices and
/// ~3*(grid-1)^2 edges (DESIGN.md section 1.5 for the lattice).
/// \throws std::invalid_argument when grid is outside [2, 180] or the
///         amplitude exceeds kMaxCoord.
Terrain make_terrain(const GenOptions& opt);

/// Family from its bench/CLI name ("fbm", "ridge_front", ...). Throws on
/// unknown names.
Family family_from_name(const std::string& name);
const char* family_name(Family f) noexcept;

/// All families, for parameterized tests/benches.
inline constexpr Family kAllFamilies[] = {Family::Fbm,    Family::RidgeFront, Family::TerraceBack,
                                          Family::Spikes, Family::Valley,     Family::Skyline};

}  // namespace thsr

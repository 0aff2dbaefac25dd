#pragma once
/// \file obj_io.hpp
/// Wavefront-OBJ-subset IO for terrains: `v x y z` vertices and `f i j k`
/// triangular faces (1-based). Floating-point vertices are quantized onto
/// the integer grid required by the exact predicates (DESIGN.md section 5);
/// `scale` controls the quantization resolution.

#include <iosfwd>
#include <string>

#include "terrain/terrain.hpp"

namespace thsr {

/// Write the terrain as OBJ (`v` lines in vertex order, then `f` lines in
/// triangle order; 1-based indices). O(n).
void save_obj(const Terrain& t, std::ostream& os);
/// \overload Opens `path` for writing; throws std::runtime_error when it cannot.
void save_obj(const Terrain& t, const std::string& path);

/// Load a triangle-mesh OBJ.
/// \param is    the OBJ text (only `v`/`f` records; `#` comments allowed)
/// \param scale coordinates are multiplied by `scale`, then rounded to the
///              integer lattice the exact predicates require
/// \return the validated terrain (Terrain::from_triangles contract)
/// \throws std::runtime_error on parse errors, coordinate-bound
///         violations after scaling, or non-triangular faces;
///         std::invalid_argument when the mesh breaks the from_triangles
///         contract (repeated index, ground-collinear face, ...). O(n log n).
Terrain load_obj(std::istream& is, double scale = 1.0);
/// \overload Opens `path` for reading; throws std::runtime_error when it cannot.
Terrain load_obj(const std::string& path, double scale = 1.0);

}  // namespace thsr

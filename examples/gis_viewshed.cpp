/// gis_viewshed — the workload the paper's introduction motivates: a
/// geographic terrain inspected from several view directions. Azimuths are
/// realized exactly by rotating the ground lattice with Pythagorean-triple
/// rotations (integer coordinates, so the exact predicates keep working),
/// then viewing along -x as usual. Prints a per-azimuth visibility table
/// and writes one SVG per direction. Runs on synthetic relief by default,
/// or on a real DEM via the ESRI ASCII-grid loader.
///
///   ./gis_viewshed [grid=40] [seed=11]
///   ./gis_viewshed --asc input.asc [z_scale=1.0]

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/hsr.hpp"
#include "io/csv.hpp"
#include "io/svg.hpp"
#include "terrain/asc_io.hpp"
#include "terrain/generators.hpp"

int main(int argc, char** argv) {
  using namespace thsr;

  Terrain base;
  if (argc > 1 && std::string(argv[1]) == "--asc" && argc <= 2) {
    std::cerr << "usage: gis_viewshed --asc input.asc [z_scale]\n";
    return 2;
  }
  if (argc > 2 && std::string(argv[1]) == "--asc") {
    AscTerrainOptions opt;
    if (argc > 3) {
      opt.z_scale = std::atof(argv[3]);
      if (!(opt.z_scale > 0)) {
        std::cerr << "usage: gis_viewshed --asc input.asc [z_scale>0]\n";
        return 2;
      }
    }
    base = load_asc(argv[2], opt);
    std::cout << "loaded DEM " << argv[2] << "\n";
  } else {
    GenOptions gen;
    gen.family = Family::Fbm;
    gen.grid = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 40;
    gen.seed = argc > 2 ? static_cast<u64>(std::atoll(argv[2])) : 11;
    gen.amplitude = 6 * gen.grid;
    base = make_terrain(gen);
  }

  // Exact rational azimuths: (a, b) rotations, angle = atan2(b, a).
  struct View {
    i64 a, b;
    const char* name;
  };
  // |a|+|b| <= 17 keeps rotated coordinates within the exact-predicate range.
  const View views[] = {
      {1, 0, "east"},  {12, 5, "E23N"}, {4, 3, "E37N"},  {3, 4, "E53N"},
      {0, 1, "north"}, {-3, 4, "W53N"}, {-1, 0, "west"},
  };

  Table table({"azimuth", "deg", "n_edges", "k_pieces", "image_vertices", "visible_len",
               "time_ms"});
  const double full = [&] {
    double len = 0;
    for (u32 e = 0; e < base.edge_count(); ++e) {
      if (base.is_sliver(e)) continue;
      const Seg2 s = base.image_segment(e);
      len += static_cast<double>(s.u1 - s.u0);
    }
    return len;
  }();
  std::cout << "viewshed over " << base.edge_count() << " edges; total projected length " << full
            << "\n\n";

  for (const View& v : views) {
    Terrain t;
    try {
      t = base.rotate_ground(v.a, v.b);
    } catch (const std::invalid_argument&) {
      // A large lattice (e.g. a full-size DEM) can leave no headroom for
      // the rotation's scale factor; skip that azimuth rather than abort.
      std::cout << "skipping azimuth " << v.name << ": rotated coordinates out of range\n";
      continue;
    }
    const HsrResult r = hidden_surface_removal(t);
    const double deg = std::atan2(static_cast<double>(v.b), static_cast<double>(v.a)) * 180.0 /
                       3.14159265358979;
    table.row({v.name, Table::num(deg, 1), Table::num(static_cast<long long>(t.edge_count())),
               Table::num(static_cast<long long>(r.stats.k_pieces)),
               Table::num(static_cast<long long>(r.stats.k_crossings)),
               Table::num(r.map.visible_length(), 1), Table::num(r.stats.total_s * 1e3, 2)});
    render_visibility_svg(t, r.map, std::string("viewshed_") + v.name + ".svg");
  }
  table.print_markdown(std::cout);
  std::cout << "\nwrote viewshed_<azimuth>.svg files\n";
  return 0;
}

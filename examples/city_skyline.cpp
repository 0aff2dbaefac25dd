/// city_skyline — output-size extremes on one plot: the same edge count n
/// produces wildly different output sizes k depending on the scene, which is
/// exactly why the paper insists on output-size sensitivity. Solves every
/// generator family at a fixed grid with the default algorithm and prints
/// n, k, k/n and the runtime, then renders the skyline scene.
///
///   ./city_skyline [grid=40] [seed=2]

#include <cstdlib>
#include <iostream>

#include "core/hsr.hpp"
#include "io/csv.hpp"
#include "io/svg.hpp"
#include "terrain/generators.hpp"

int main(int argc, char** argv) {
  using namespace thsr;

  const u32 grid = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 40;
  const u64 seed = argc > 2 ? static_cast<u64>(std::atoll(argv[2])) : 2;

  Table table({"family", "n_edges", "k_pieces", "k/n", "image_vertices", "time_ms"});
  for (const Family f : kAllFamilies) {
    GenOptions gen;
    gen.family = f;
    gen.grid = grid;
    gen.seed = seed;
    const Terrain t = make_terrain(gen);
    const HsrResult r = hidden_surface_removal(t);
    table.row({family_name(f), Table::num(static_cast<long long>(r.stats.n_edges)),
               Table::num(static_cast<long long>(r.stats.k_pieces)),
               Table::num(static_cast<double>(r.stats.k_pieces) /
                              static_cast<double>(r.stats.n_edges),
                          2),
               Table::num(static_cast<long long>(r.stats.k_crossings)),
               Table::num(r.stats.total_s * 1e3, 2)});
    if (f == Family::Skyline) {
      render_visibility_svg(t, r.map, "city_skyline.svg");
    }
  }
  std::cout << "output size across scene families (grid " << grid << "):\n\n";
  table.print_markdown(std::cout);
  std::cout << "\nwrote city_skyline.svg\n";
  return 0;
}

/// terrain_pipeline — the downstream-user workflow: load a terrain mesh
/// from an OBJ file (or generate one and round-trip it through OBJ),
/// prepare a session engine once, run the multi-stage solve (the default
/// algorithm's answer, then a batched cross-check of the other algorithms
/// against the same cached preprocessing), and export machine-readable results (CSV of
/// visible pieces with exact rational endpoints) plus an SVG rendering.
///
///   ./terrain_pipeline input.obj [scale=1.0]
///   ./terrain_pipeline --demo            (self-generates and round-trips)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/svg.hpp"
#include "terrain/generators.hpp"
#include "terrain/obj_io.hpp"

int main(int argc, char** argv) {
  using namespace thsr;

  Terrain terrain;
  if (argc < 2 || std::string(argv[1]) == "--demo") {
    GenOptions gen;
    gen.family = Family::Valley;
    gen.grid = 36;
    gen.jitter = true;  // irregular TIN, closer to survey data
    const Terrain original = make_terrain(gen);
    save_obj(original, "pipeline_demo.obj");
    terrain = load_obj("pipeline_demo.obj");
    std::cout << "demo mode: generated + round-tripped pipeline_demo.obj\n";
  } else {
    const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;
    terrain = load_obj(argv[1], scale);
    std::cout << "loaded " << argv[1] << "\n";
  }
  std::cout << "  " << terrain.vertex_count() << " vertices, " << terrain.edge_count()
            << " edges\n";

  // Stage 1: preprocess once (segment tables, depth order, PCT) …
  HsrEngine engine;
  engine.prepare(terrain);
  std::cout << "prepared in " << engine.prepare_seconds() * 1e3 << " ms\n";

  // Stage 2: … answer with the default algorithm …
  const HsrResult r = engine.solve();
  std::cout << "visible pieces: " << r.stats.k_pieces << ", image vertices: "
            << r.stats.k_crossings << ", solved in "
            << (r.stats.total_s - r.stats.order_s) * 1e3 << " ms (excl. prepare)\n";

  // Stage 3: … and cross-check the other algorithms as one batch against
  // the same cached preprocessing (all maps are bit-identical by contract).
  const std::vector<HsrOptions> checks{{.algorithm = Algorithm::Parallel},
                                       {.algorithm = Algorithm::Reference}};
  for (const HsrResult& c : engine.solve_batch(checks)) {
    if (const auto diff = r.map.first_difference(c.map)) {
      std::cerr << "cross-check FAILED at edge " << *diff << "\n";
      return 1;
    }
  }
  std::cout << "cross-check: parallel + reference agree exactly\n";

  std::ofstream csv("pipeline_visibility.csv");
  csv << "edge,piece,y0,y1,kind0,kind1\n";
  const auto kind = [](EndpointKind k) {
    switch (k) {
      case EndpointKind::SegmentEnd: return "end";
      case EndpointKind::Crossing: return "crossing";
      case EndpointKind::Break: return "break";
    }
    return "?";
  };
  for (u32 e = 0; e < terrain.edge_count(); ++e) {
    const auto pieces = r.map.pieces(e);
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      csv << e << ',' << i << ',' << to_string(pieces[i].y0) << ',' << to_string(pieces[i].y1)
          << ',' << kind(pieces[i].k0) << ',' << kind(pieces[i].k1) << '\n';
    }
  }
  render_visibility_svg(terrain, r.map, "pipeline_visibility.svg");
  std::cout << "wrote pipeline_visibility.csv and pipeline_visibility.svg\n";
  return 0;
}

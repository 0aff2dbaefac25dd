/// silhouette_render — the "rendering procedure" of the paper's section 2:
/// the object-space visibility map is device-independent, so the same map
/// drives any display; here it drives an SVG renderer. Renders a dramatic
/// ridge scene three ways (full wireframe, visible scene, visible-only) and
/// reports how much of the scene the hidden-surface removal discarded.
///
///   ./silhouette_render [grid=56] [family=valley] [seed=5]

#include <cstdlib>
#include <iostream>

#include "core/hsr.hpp"
#include "envelope/build.hpp"
#include "io/svg.hpp"
#include "terrain/generators.hpp"

int main(int argc, char** argv) {
  using namespace thsr;

  GenOptions gen;
  gen.grid = argc > 1 ? static_cast<u32>(std::atoi(argv[1])) : 56;
  gen.family = family_from_name(argc > 2 ? argv[2] : "valley");
  gen.seed = argc > 3 ? static_cast<u64>(std::atoll(argv[3])) : 5;
  gen.amplitude = 8 * gen.grid;
  const Terrain t = make_terrain(gen);

  const HsrResult r = hidden_surface_removal(t);

  // Visible scene over the faint full wireframe.
  SvgOptions with_hidden;
  render_visibility_svg(t, r.map, "silhouette_scene.svg", with_hidden);
  // Visible geometry alone — what a plotter would draw.
  SvgOptions only_visible;
  only_visible.draw_hidden = false;
  render_visibility_svg(t, r.map, "silhouette_visible_only.svg", only_visible);

  // The upper profile (the paper's "silhouette") of the whole scene.
  std::vector<Seg2> segs(t.edge_count(), Seg2{0, 0, 1, 0});
  std::vector<u32> ids;
  for (u32 e = 0; e < t.edge_count(); ++e) {
    if (!t.is_sliver(e)) {
      segs[e] = t.image_segment(e);
      ids.push_back(e);
    }
  }
  const Envelope profile = envelope_of(ids, segs, /*parallel=*/true);
  render_envelope_svg(t, profile, segs, "silhouette_profile.svg");

  double full_len = 0;
  for (const u32 e : ids) full_len += static_cast<double>(segs[e].u1 - segs[e].u0);
  const double vis = r.map.visible_length();
  std::cout << family_name(gen.family) << " " << gen.grid << "x" << gen.grid << ": "
            << t.edge_count() << " edges\n"
            << "visible pieces (k): " << r.stats.k_pieces
            << ", image vertices: " << r.stats.k_crossings << "\n"
            << "visible length: " << vis << " of " << full_len << " ("
            << (100.0 * vis / full_len) << "% survives hidden-surface removal)\n"
            << "upper profile: " << profile.size() << " pieces\n"
            << "wrote silhouette_scene.svg, silhouette_visible_only.svg, "
               "silhouette_profile.svg\n";
  return 0;
}

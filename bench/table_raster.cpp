/// RASTER — image-space rasterization throughput (DESIGN.md 1.8): how the
/// scan-converter scales with resolution, supersampling, worker count,
/// and sharding. The solved map is fixed per grid, so the interesting
/// columns are raster wall clock and sample throughput; `crossings` is
/// the machine/backend/p-independent work signal bench_ci gates, and
/// `hit%` sanity-checks that resolutions see the same scene. The sharded
/// rows rasterize per-slab maps into disjoint column bands (no stitch)
/// and must reproduce the monolithic image bit-for-bit.

#include <vector>

#include "bench_util.hpp"
#include "core/engine.hpp"
#include "parallel/backend.hpp"
#include "raster/raster.hpp"
#include "shard/sharded_engine.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace thsr;

double median3_raster_seconds(const Terrain& t, const VisibilityMap& m,
                              const raster::RasterOptions& opt) {
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    const Stopwatch clock;
    (void)raster::rasterize(t, m, opt);
    runs.push_back(clock.seconds());
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

}  // namespace

int main() {
  using namespace thsr::bench;
  print_header("RASTER", "image-space products (DESIGN.md 1.8)",
               "raster wall clock scales with output pixels and p at fixed crossings; "
               "sharded bands reproduce the monolithic image bit-for-bit");

  const int hw = par::max_threads();
  const int pmax = std::max(4, hw);
  std::vector<u32> grids{64};
  if (large()) grids.push_back(128);

  Table t({"grid", "n_tris", "WxH", "s", "p", "raster_ms", "Msamp/s", "crossings", "hit%",
           "sharded8_ms", "equal"});
  for (const u32 g : grids) {
    const Terrain terr = make(Family::Fbm, g);
    HsrEngine engine;
    engine.prepare(terr);
    const HsrResult solved = engine.solve({.algorithm = Algorithm::Parallel});

    shard::ShardedEngine sharded;
    sharded.prepare(terr, 8);
    const auto per_slab = sharded.solve_slabs();
    std::vector<const VisibilityMap*> slab_maps(per_slab.size(), nullptr);
    for (std::size_t s = 0; s < per_slab.size(); ++s) {
      if (per_slab[s]) slab_maps[s] = &per_slab[s]->map;
    }

    struct Shape {
      u32 w, h, s;
    };
    std::vector<Shape> shapes{{160, 120, 1}, {320, 240, 1}, {320, 240, 2}};
    if (large()) shapes.push_back({640, 480, 2});
    for (const Shape& sh : shapes) {
      for (int p = 1; p <= pmax; p *= 2) {
        raster::RasterOptions opt;
        opt.width = sh.w;
        opt.height = sh.h;
        opt.supersample = sh.s;
        opt.threads = p;
        const raster::ImageRaster img = raster::rasterize(terr, solved.map, opt);
        const double sec = median3_raster_seconds(terr, solved.map, opt);

        const Stopwatch clock;
        const raster::ImageRaster banded =
            raster::rasterize_sharded(sharded.plan(), slab_maps, opt);
        const double shard_sec = clock.seconds();
        const bool equal = banded.ids == img.ids && banded.depth == img.depth &&
                           banded.coverage == img.coverage;

        t.row({Table::num(static_cast<long long>(g)),
               Table::num(static_cast<long long>(terr.triangle_count())),
               std::to_string(sh.w) + "x" + std::to_string(sh.h),
               Table::num(static_cast<long long>(sh.s)),
               Table::num(static_cast<long long>(p)), ms(sec),
               Table::num(static_cast<double>(img.samples) / sec / 1e6, 2),
               Table::num(static_cast<unsigned long long>(img.crossings)),
               Table::num(100.0 * static_cast<double>(img.hit_samples) /
                              static_cast<double>(img.samples),
                          1),
               ms(shard_sec), equal ? "yes" : "NO"});
      }
    }
  }
  t.print_markdown(std::cout);
  t.maybe_write_csv("table_raster");
  std::cout << "\nnote: crossings and hit% are machine/backend/p-independent (bench_ci gates "
               "the raster/* cases); `equal` must read `yes` in every row — the sharded "
               "no-stitch raster contract. hardware exposes "
            << hw << " workers.\n";
  return 0;
}

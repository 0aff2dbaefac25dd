/// Differential fuzz harness: randomized terrain / viewpoint / algorithm /
/// oracle / backend tuples, cross-checked pairwise across independent solve
/// paths — engine vs one-shot shim, sharded vs monolithic, streamed
/// (bounded) vs monolithic (exact), bounded vs exact raster, triangle-local
/// vs full-sweep depth order — and random `.asc` text read by every source
/// vs the `>>` reference. Every iteration derives its own
/// seed and logs it; on a mismatch the failure message carries exact
/// reproduction instructions.
///
/// Tiers: the default run is the quick tier (a few iterations per pair,
/// ctest-friendly). Set THSR_FUZZ_ITERS=<n> for the long tier — the nightly
/// CI job runs hundreds of iterations and uploads failing seeds as
/// artifacts. Set THSR_FUZZ_SEED=<s> to reproduce a logged failure: the
/// seed fully determines the tuple (terrain family, grid, heights,
/// viewpoint, algorithm, oracle, backend, resolution).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>

#include "asc_reference.hpp"
#include "core/engine.hpp"
#include "core/hsr.hpp"
#include "raster/oracle.hpp"
#include "raster/raster.hpp"
#include "separator/depth_order.hpp"
#include "service/engine_cache.hpp"
#include "service/viewpoint.hpp"
#include "shard/sharded_engine.hpp"
#include "stream/dem_lattice.hpp"
#include "stream/sinks.hpp"
#include "stream/stream.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

u64 env_u64(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Quick tier: 4 iterations per pair. THSR_FUZZ_ITERS overrides (nightly).
u64 fuzz_iters() { return env_u64("THSR_FUZZ_ITERS", 4); }
u64 fuzz_seed() { return env_u64("THSR_FUZZ_SEED", 0x5eed2026); }

/// Per-iteration seed: splitmix64 step of (base, iter) — logged on failure.
u64 iter_seed(u64 base, u64 iter) {
  u64 z = base + 0x9e3779b97f4a7c15ull * (iter + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string repro(const char* test, u64 seed) {
  std::ostringstream os;
  os << "reproduce with: THSR_FUZZ_SEED=" << seed << " THSR_FUZZ_ITERS=1 "
     << "./tests/test_differential --gtest_filter=Differential." << test;
  return os.str();
}

/// The randomized tuple drawn by every check (fields used as applicable).
struct Tuple {
  Family family;
  u32 grid;
  u64 terrain_seed;
  bool jitter;
  Algorithm algorithm;
  Phase2Oracle oracle;
  par::Backend backend;
  int threads;
  u32 width, height, supersample;
  service::Viewpoint viewpoint;
};

Tuple draw(u64 seed) {
  std::mt19937_64 g{seed};
  const auto backends = par::available_backends();
  Tuple t;
  t.family = kAllFamilies[g() % 6];
  t.grid = 6 + static_cast<u32>(g() % 12);
  t.terrain_seed = g();
  t.jitter = (g() & 1) != 0;
  t.algorithm = static_cast<Algorithm>(g() % 3);
  t.oracle = (g() & 1) != 0 ? Phase2Oracle::Persistent : Phase2Oracle::MaterializedScan;
  t.backend = backends[g() % backends.size()];
  t.threads = 1 + static_cast<int>(g() % 4);
  t.width = 8 + static_cast<u32>(g() % 56);
  t.height = 8 + static_cast<u32>(g() % 40);
  t.supersample = 1 + static_cast<u32>(g() % 2);
  t.viewpoint = service::Viewpoint{.dir_x = 1 + static_cast<i64>(g() % 4),
                                   .dir_y = static_cast<i64>(g() % 5) - 2,
                                   .elev_num = static_cast<i64>(g() % 3) - 1,
                                   .elev_den = 1 + static_cast<i64>(g() % 3)};
  return t;
}

std::string tuple_str(const Tuple& t) {
  std::ostringstream os;
  os << family_name(t.family) << " g" << t.grid << " seed" << t.terrain_seed
     << (t.jitter ? " jitter" : "") << " " << algorithm_name(t.algorithm) << " "
     << (t.oracle == Phase2Oracle::Persistent ? "persistent" : "matscan") << " "
     << par::backend_name(t.backend) << "/p" << t.threads << " " << t.width << "x" << t.height
     << "s" << t.supersample;
  return os.str();
}

HsrOptions solve_opt(const Tuple& t, bool with_executor) {
  HsrOptions opt;
  opt.algorithm = t.algorithm;
  opt.phase2_oracle = t.oracle;
  if (with_executor) {
    opt.backend = t.backend;
    opt.threads = t.threads;
  }
  return opt;
}

void expect_images_identical(const raster::ImageRaster& a, const raster::ImageRaster& b,
                             const std::string& why) {
  ASSERT_EQ(a.width, b.width) << why;
  ASSERT_EQ(a.height, b.height) << why;
  EXPECT_EQ(a.ids, b.ids) << why;
  EXPECT_EQ(a.depth, b.depth) << why;
  EXPECT_EQ(a.coverage, b.coverage) << why;
  EXPECT_EQ(a.hit_samples, b.hit_samples) << why;
}

// ---------------------------------------------------------------- pairs

// Session engine (prepared once, warm re-solve, viewpoint transform via the
// service cache) vs the one-shot shim: identical maps and work counters.
TEST(Differential, EngineVsShim) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    const Tuple tu = draw(seed);
    SCOPED_TRACE(repro("EngineVsShim", seed) + "\n  tuple: " + tuple_str(tu));
    const Terrain t = test::make_family_terrain(tu.family, tu.grid, tu.terrain_seed,
                                                /*shear=*/true, tu.jitter);
    const HsrResult shim = hidden_surface_removal(t, solve_opt(tu, /*with_executor=*/true));
    HsrEngine engine;
    engine.prepare(t);
    (void)engine.solve(solve_opt(tu, true));  // cold solve warms the arena
    const HsrResult warm = engine.solve(solve_opt(tu, true));
    EXPECT_FALSE(shim.map.first_difference(warm.map).has_value());
    EXPECT_TRUE(shim.stats.work == warm.stats.work);
    EXPECT_EQ(shim.stats.k_pieces, warm.stats.k_pieces);
    EXPECT_EQ(shim.stats.treap_nodes, warm.stats.treap_nodes);
    // Viewpoint leg: the cache-prepared view solves bit-identically to a
    // direct solve of its own view terrain.
    service::EngineCache cache;
    cache.add_terrain(1, std::make_shared<Terrain>(t));
    auto lease = cache.acquire(1, tu.viewpoint);
    const HsrResult served = lease->engine().solve(solve_opt(tu, /*with_executor=*/false));
    const HsrResult direct =
        hidden_surface_removal(lease->view_terrain(), solve_opt(tu, false));
    EXPECT_FALSE(served.map.first_difference(direct.map).has_value());
    EXPECT_TRUE(served.stats.work == direct.stats.work);
  }
}

// Sharded decomposition vs the monolithic solve, modulo coalescing at the
// cut lines (the stitch contract).
TEST(Differential, ShardedVsMono) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    const Tuple tu = draw(seed);
    SCOPED_TRACE(repro("ShardedVsMono", seed) + "\n  tuple: " + tuple_str(tu));
    const Terrain t = test::make_family_terrain(tu.family, tu.grid, tu.terrain_seed,
                                                /*shear=*/true, tu.jitter);
    shard::ShardedEngine engine;
    engine.prepare(t, 2 + static_cast<u32>(seed % 5));
    const HsrResult sharded = engine.solve(solve_opt(tu, /*with_executor=*/true));
    const HsrResult mono = hidden_surface_removal(t, solve_opt(tu, true));
    const VisibilityMap canon = shard::coalesce_at_cuts(mono.map, engine.plan().cuts);
    const auto diff = canon.first_difference(sharded.map);
    EXPECT_FALSE(diff.has_value()) << "stitched map differs at edge " << *diff;
  }
}

// Out-of-core streaming pipeline vs the monolithic solve+rasterize of the
// same DEM under the same window: bitwise image identity for random
// resident budgets.
TEST(Differential, StreamedVsMono) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    const Tuple tu = draw(seed);
    SCOPED_TRACE(repro("StreamedVsMono", seed) + "\n  tuple: " + tuple_str(tu));
    const auto fam = test::kAllGridFamilies[seed % 4];
    const AscGrid g = test::make_asc_grid(10 + static_cast<u32>(seed % 12),
                                          9 + static_cast<u32>((seed >> 8) % 10), fam, seed);
    stream::GridRowSource src(g);
    stream::StreamOptions sopt;
    sopt.width = tu.width;
    sopt.height = tu.height;
    sopt.supersample = tu.supersample;
    sopt.resident_slabs = 1 + static_cast<u32>((seed >> 16) % 3);
    sopt.solve = solve_opt(tu, /*with_executor=*/false);
    stream::MemoryBandSink sink(sopt.width, sopt.height, sopt.supersample);
    const stream::StreamStats st = stream::stream_solve(src, sopt, sink);

    const Terrain mono = stream::terrain_from_rows(g.ncols, g.nrows, g.values, g.nodata);
    const HsrResult r = hidden_surface_removal(mono, solve_opt(tu, false));
    raster::RasterOptions ropt;
    ropt.width = sopt.width;
    ropt.height = sopt.height;
    ropt.supersample = sopt.supersample;
    ropt.window = st.window;
    expect_images_identical(sink.image(), raster::rasterize(mono, r.map, ropt),
                            "streamed image != monolithic image");
  }
}

// Bounded solve vs exact solve vs brute-force oracle: bitwise raster
// identity at the budget's matching resolution, for random tuples.
TEST(Differential, BoundedVsExact) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    const Tuple tu = draw(seed);
    SCOPED_TRACE(repro("BoundedVsExact", seed) + "\n  tuple: " + tuple_str(tu));
    const Terrain t = test::make_family_terrain(tu.family, tu.grid, tu.terrain_seed,
                                                /*shear=*/true, tu.jitter);
    const raster::RasterOptions ropt{
        .width = tu.width, .height = tu.height, .supersample = tu.supersample};
    HsrOptions bopt = solve_opt(tu, /*with_executor=*/true);
    bopt.pixel_budget = raster::pixel_budget(t, ropt);
    const HsrResult bounded = hidden_surface_removal(t, bopt);
    const HsrResult exact = hidden_surface_removal(t, solve_opt(tu, true));
    const raster::ImageRaster img_b = raster::rasterize(t, bounded.map, ropt);
    const raster::ImageRaster img_e = raster::rasterize(t, exact.map, ropt);
    expect_images_identical(img_b, img_e, "bounded raster != exact raster");
    EXPECT_EQ(img_b.crossings, img_e.crossings);
    if (tu.grid <= 10) {  // brute-force oracle on the small grids only
      expect_images_identical(img_b, raster::raycast_reference(t, ropt),
                              "bounded raster != oracle raster");
    }
  }
}

// Triangle-local depth order vs the full sweep on a random holed DEM under
// a random ground rotation: identical order and ranks.
TEST(Differential, HoledDemOrderVsSweep) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    SCOPED_TRACE(repro("HoledDemOrderVsSweep", seed));
    std::mt19937_64 g{seed};
    const AscGrid dem = test::make_asc_grid(6 + static_cast<u32>(g() % 20),
                                            6 + static_cast<u32>(g() % 20),
                                            test::GridFamily::Holes, g());
    const stream::SlabBuild b = stream::build_rows(dem.ncols, 0, dem.nrows, dem.values,
                                                   dem.nodata, /*tri_base=*/0);
    if (b.empty()) continue;
    i64 a = 0, c = 0;
    while (a == 0 && c == 0) {
      a = static_cast<i64>(g() % 13) - 6;
      c = static_cast<i64>(g() % 13) - 6;
    }
    SCOPED_TRACE("rotation (" + std::to_string(a) + ", " + std::to_string(c) + ")");
    const Terrain t = b.terrain.rotate_ground(a, c);
    const DepthOrder got = compute_depth_order(t), want = sweep_depth_order(t);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.rank, want.rank);
  }
}

/// Word `i` (modulo the count) of a space-separated list.
std::string pick_word(const std::string& list, u64 i) {
  std::istringstream in(list);
  std::vector<std::string> words;
  for (std::string w; in >> w;) words.push_back(w);
  return words[i % words.size()];
}

/// Extreme spellings: the subnormal floor, underflows (read as zero), a
/// signed zero, the largest double, more digits than a double holds.
const std::string kExtremeTokens =
    "4.9e-324 1e-400 -1e-400 2e-324 0e999 -0 "
    "1.7976931348623157e308 123456789012345678901234567890";

/// Tokens `>>` does not read whole: dangling exponent, doubled sign, words,
/// extra points, inf/nan, hex, overflow, glued values.
const std::string kMalformedTokens = "1e --1 x 1.2.3 inf nan 0x10 +-1 . 1e400 5- 1,5";

/// A random spelling of a height: signs, leading zeros, bare points,
/// fixed and exponent forms, extremes, the NODATA value.
std::string random_token(std::mt19937_64& g) {
  char buf[64];
  const double v = std::uniform_real_distribution<double>(-5000, 5000)(g);
  const auto whole = static_cast<long long>(v);
  const int digits = static_cast<int>(g() % 17);
  switch (g() % 10) {
    case 0:
      std::snprintf(buf, sizeof buf, "%+lld", whole);
      break;
    case 1:
      std::snprintf(buf, sizeof buf, "%05lld", whole < 0 ? -whole : whole);
      break;
    case 2:
      std::snprintf(buf, sizeof buf, "%.*f", digits % 6, v);
      break;
    case 3:
      std::snprintf(buf, sizeof buf, "%.17g", v);
      break;
    case 4:
      std::snprintf(buf, sizeof buf, g() % 2 ? "%.*e" : "%.*E", digits, v);
      break;
    case 5:
      std::snprintf(buf, sizeof buf, "%lld.", whole);
      break;
    case 6:
      std::snprintf(buf, sizeof buf, "%s.%03d", g() % 2 ? "-" : "+", digits * 61);
      break;
    case 7:
      return pick_word(kExtremeTokens, g());
    default:
      return "-9999";
  }
  return buf;
}

/// Whitespace between tokens: spaces, tabs, \v, \f and every line ending.
std::string random_gap(std::mt19937_64& g) {
  const char* const gaps[] = {" ", "  ", "\t", "\v", "\f", "\n", "\r\n", " \r\n\n", "\t \r\n"};
  std::string out = gaps[g() % 9];
  if (g() % 4 == 0) out += gaps[g() % 9];
  return out;
}

// Random DEM text — random spacing, line wraps, CRLF and mixed endings,
// NODATA, sometimes one malformed token or trailing text — read by every
// source (load_asc_grid over a stream and a path; AscRowReader mapped,
// unmapped and over a stream) must equal the `>>` reference, reject
// included. Grids span several of the unmapped sources' 64 KiB chunks.
TEST(Differential, AscTextParsers) {
  for (u64 i = 0; i < fuzz_iters(); ++i) {
    const u64 seed = iter_seed(fuzz_seed(), i);
    SCOPED_TRACE(repro("AscTextParsers", seed));
    std::mt19937_64 g{seed};
    // >= 12,000 tokens: ~150 KB of text, several 64 KiB chunks.
    const u32 cols = 2 + static_cast<u32>(g() % 40);
    const u32 rows = 12'000 / cols + static_cast<u32>(g() % 400);
    const auto eol = [&] { return g() % 3 == 0 ? "\r\n" : "\n"; };
    std::string text = std::string("ncols ") + std::to_string(cols) + eol() + "nrows " +
                       std::to_string(rows) + eol() + "xllcorner 0" + eol() + "yllcorner 0" +
                       eol() + "cellsize 1" + eol();
    if (g() % 2 == 0) text += std::string("NODATA_value -9999") + eol();
    std::string payload;
    const std::size_t want = std::size_t{cols} * rows;
    const std::size_t bad = g() % 3 == 0 ? g() % want : want;  // index of a malformed token
    for (std::size_t k = 0; k < want; ++k) {
      payload += k == bad ? pick_word(kMalformedTokens, g()) : random_token(g);
      payload += random_gap(g);
    }
    if (g() % 4 == 0) payload += "trailing text after the grid\n";
    const std::string path = test::temp_path("thsr_asc_text_" + std::to_string(seed), ".asc");
    test::expect_reads_match(test::read_every_way(text + payload, path),
                             test::reference_payload(payload, want),
                             std::to_string(cols) + "x" + std::to_string(rows) + " DEM text");
  }
}

}  // namespace
}  // namespace thsr

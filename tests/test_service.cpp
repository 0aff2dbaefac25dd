/// Serving-layer contract (src/service/, DESIGN.md section 1.10): viewpoint
/// canonicalization and the width-budget gate; the exact transform preserving
/// topology and edge ids; parameterized solves bit-identical — maps and work
/// counters — to direct solves of the pre-transformed terrain across
/// algorithms, backends, and thread counts; the engine cache's LRU order,
/// byte budget, and hit-path identity (including under concurrent acquires:
/// the tsan preset runs this file); the depth-order transfer; and the query
/// server's submit/drain/error/drop behavior, with exact reply counters
/// while other threads prepare engines and with zero drops while blocked
/// producers churn a one-byte cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "raster/raster.hpp"
#include "service/query_server.hpp"
#include "terrain/generators.hpp"
#include "test_util.hpp"

namespace thsr {
namespace {

using service::EngineCache;
using service::PreparedView;
using service::Query;
using service::QueryReply;
using service::QueryServer;
using service::QueryStatus;
using service::ServerOptions;
using service::Viewpoint;

Terrain make(Family f, u32 grid, u64 seed = 1) {
  GenOptions opt;
  opt.family = f;
  opt.grid = grid;
  opt.seed = seed;
  return make_terrain(opt);
}

std::shared_ptr<const Terrain> make_shared_terrain(Family f, u32 grid, u64 seed = 1) {
  return std::make_shared<const Terrain>(make(f, grid, seed));
}

// Map + stats equality at the bit-identical level the serving layer
// guarantees (same contract as tests/test_engine.cpp).
void expect_identical(const HsrResult& got, const HsrResult& want, const std::string& label) {
  const auto diff = want.map.first_difference(got.map);
  EXPECT_FALSE(diff.has_value()) << label << ": maps differ at edge " << *diff;
  EXPECT_EQ(got.stats.work, want.stats.work) << label << ": work counters differ";
  EXPECT_EQ(got.stats.k_pieces, want.stats.k_pieces) << label;
  EXPECT_EQ(got.stats.k_crossings, want.stats.k_crossings) << label;
  EXPECT_EQ(got.stats.treap_nodes, want.stats.treap_nodes) << label;
  EXPECT_EQ(got.stats.n_edges, want.stats.n_edges) << label;
  EXPECT_EQ(got.stats.n_slivers, want.stats.n_slivers) << label;
  EXPECT_EQ(got.stats.depth_constraints, want.stats.depth_constraints) << label;
}

// Admissible, non-trivial viewpoints exercising every rung of the reuse
// ladder: pure shears (ground-preserving), pure rotations, and both.
std::vector<Viewpoint> probe_viewpoints() {
  return {
      Viewpoint{},                                                       // canonical frame
      Viewpoint{.elev_num = 1, .elev_den = 3},                           // shear only
      Viewpoint{.elev_num = -2, .elev_den = 5},                          // shear below horizon
      Viewpoint{.dir_x = 0, .dir_y = 1},                                 // quarter turn
      Viewpoint{.dir_x = 3, .dir_y = 4},                                 // Pythagorean azimuth
      Viewpoint{.dir_x = -1, .dir_y = 2, .elev_num = 1, .elev_den = 4},  // general
  };
}

TEST(Viewpoint, CanonicalReducesDirectionAndSlope) {
  const Viewpoint c = service::canonical({.dir_x = 6, .dir_y = -4, .elev_num = 10, .elev_den = -4});
  EXPECT_EQ(c.dir_x, 3);
  EXPECT_EQ(c.dir_y, -2);
  EXPECT_EQ(c.elev_num, -5);
  EXPECT_EQ(c.elev_den, 2);
  // Zero slope pins to 0/1 regardless of the input denominator.
  const Viewpoint z = service::canonical({.dir_x = -2, .dir_y = 0, .elev_num = 0, .elev_den = 9});
  EXPECT_EQ(z.dir_x, -1);
  EXPECT_EQ(z.elev_den, 1);
  // Canonical inputs are fixed points.
  EXPECT_EQ(service::canonical(c), c);
}

TEST(Viewpoint, CanonicalThrowsOnDegenerateInputs) {
  EXPECT_THROW((void)service::canonical({.dir_x = 0, .dir_y = 0}), std::invalid_argument);
  EXPECT_THROW((void)service::canonical({.dir_x = 1, .dir_y = 0, .elev_den = 0}),
               std::invalid_argument);
}

TEST(Viewpoint, FramePredicatesIgnoreScaling) {
  EXPECT_TRUE(service::is_canonical_frame({.dir_x = 7, .dir_y = 0, .elev_num = 0, .elev_den = 5}));
  EXPECT_FALSE(service::is_canonical_frame({.dir_x = 1, .dir_y = 0, .elev_num = 1, .elev_den = 5}));
  EXPECT_TRUE(service::ground_preserving({.dir_x = 3, .dir_y = 0, .elev_num = 2, .elev_den = 6}));
  EXPECT_FALSE(service::ground_preserving({.dir_x = 1, .dir_y = 1}));
}

TEST(Viewpoint, AdmissibilityMatchesTheWidthBound) {
  // R = 7, slope 1/1: bound = max(7M, (1 + 7)M) = 8M.
  const Viewpoint vp{.dir_x = 3, .dir_y = -4, .elev_num = 1, .elev_den = 1};
  EXPECT_EQ(service::transformed_magnitude_bound(vp, 100), u64{800});
  EXPECT_TRUE(service::admissible(vp, kMaxCoord / 8));
  EXPECT_FALSE(service::admissible(vp, kMaxCoord / 8 + 1));
  // A huge direction is inadmissible for any nonzero terrain...
  EXPECT_FALSE(service::admissible({.dir_x = kMaxCoord, .dir_y = 1}, 2));
  // ...and anything goes on the all-zero terrain.
  EXPECT_TRUE(service::admissible({.dir_x = kMaxCoord, .dir_y = 1}, 0));
}

TEST(Viewpoint, TransformPreservesTopologyAndEdgeIds) {
  const Terrain t = make(Family::Fbm, 10);
  const Terrain img = service::transform_terrain(t, {.dir_x = 3, .dir_y = 4, .elev_num = 1,
                                                     .elev_den = 3});
  ASSERT_EQ(img.vertex_count(), t.vertex_count());
  ASSERT_EQ(img.triangle_count(), t.triangle_count());
  ASSERT_EQ(img.edge_count(), t.edge_count());
  for (std::size_t e = 0; e < t.edge_count(); ++e) {
    EXPECT_EQ(img.edges()[e], t.edges()[e]);
  }
  // Spot-check the map on vertex 0: x' = 3x + 4y, y' = 3y - 4x, z' = 3z - x'.
  const Vertex3 v = t.vertices()[0];
  const Vertex3 w = img.vertices()[0];
  EXPECT_EQ(w.x, 3 * v.x + 4 * v.y);
  EXPECT_EQ(w.y, 3 * v.y - 4 * v.x);
  EXPECT_EQ(w.z, 3 * v.z - (3 * v.x + 4 * v.y));
}

TEST(Viewpoint, ScaledViewpointsProduceBitIdenticalTerrains) {
  const Terrain t = make(Family::Valley, 8);
  const Terrain a = service::transform_terrain(t, {.dir_x = 1, .dir_y = 1, .elev_num = 1,
                                                   .elev_den = 2});
  const Terrain b = service::transform_terrain(t, {.dir_x = 5, .dir_y = 5, .elev_num = -3,
                                                   .elev_den = -6});
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (std::size_t i = 0; i < a.vertex_count(); ++i) {
    EXPECT_EQ(a.vertices()[i], b.vertices()[i]);
  }
}

TEST(Viewpoint, IdentityTransformIsAPlainCopy) {
  const Terrain t = make(Family::Spikes, 8);
  const Terrain img = service::transform_terrain(t, {.dir_x = 4, .dir_y = 0});
  ASSERT_EQ(img.vertex_count(), t.vertex_count());
  for (std::size_t i = 0; i < t.vertex_count(); ++i) {
    EXPECT_EQ(img.vertices()[i], t.vertices()[i]);
  }
}

// The acceptance bar of this layer: a parameterized solve through the cache
// is bitwise identical to a direct solve of the pre-transformed terrain, for
// every probe viewpoint, across algorithms.
TEST(Service, ParameterizedSolveMatchesDirectSolveAcrossAlgorithms) {
  const auto t = make_shared_terrain(Family::Fbm, 12);
  EngineCache cache;
  cache.add_terrain(1, t);
  for (const Viewpoint& vp : probe_viewpoints()) {
    ASSERT_TRUE(service::admissible(vp, t->max_abs_coord()));
    const Terrain direct_terrain = service::transform_terrain(*t, vp);
    const auto view = cache.acquire(1, vp);
    for (const Algorithm a : {Algorithm::Parallel, Algorithm::Sequential, Algorithm::Reference}) {
      const HsrOptions opt{.algorithm = a};
      const HsrResult direct = hidden_surface_removal(direct_terrain, opt);
      expect_identical(view->engine().solve(opt), direct,
                       std::string(algorithm_name(a)) + " dir=(" + std::to_string(vp.dir_x) + "," +
                           std::to_string(vp.dir_y) + ") elev=" + std::to_string(vp.elev_num) +
                           "/" + std::to_string(vp.elev_den));
    }
  }
}

TEST(Service, ParameterizedSolveMatchesDirectSolveAcrossBackendsAndThreads) {
  const auto t = make_shared_terrain(Family::TerraceBack, 10);
  const Viewpoint vp{.dir_x = 2, .dir_y = -1, .elev_num = 1, .elev_den = 2};
  const Terrain direct_terrain = service::transform_terrain(*t, vp);
  EngineCache cache;
  cache.add_terrain(1, t);
  const auto view = cache.acquire(1, vp);
  for (const par::Backend b : par::available_backends()) {
    for (const int threads : {1, 3}) {
      const HsrOptions opt{.algorithm = Algorithm::Parallel, .threads = threads, .backend = b};
      expect_identical(view->engine().solve(opt), hidden_surface_removal(direct_terrain, opt),
                       std::string(par::backend_name(b)) + " threads=" + std::to_string(threads));
    }
  }
}

TEST(Service, GroundPreservingMissTransfersTheDepthOrder) {
  const auto t = make_shared_terrain(Family::Fbm, 10, 3);
  const Viewpoint shear{.elev_num = 1, .elev_den = 4};
  const Terrain direct_terrain = service::transform_terrain(*t, shear);

  EngineCache cache;
  cache.add_terrain(1, t);
  (void)cache.acquire(1, Viewpoint{});  // resident canonical-frame base
  const auto view = cache.acquire(1, shear);
  EXPECT_TRUE(view->reused_base_order());
  EXPECT_EQ(cache.stats().order_transfers, u64{1});

  // Transfer is a wall-clock optimization only: identical map AND counters.
  const HsrOptions opt{.algorithm = Algorithm::Parallel};
  expect_identical(view->engine().solve(opt), hidden_surface_removal(direct_terrain, opt),
                   "order transfer");

  // Without the resident base the same miss takes the full-prepare rung and
  // still produces the identical solve.
  EngineCache cold;
  cold.add_terrain(1, t);
  const auto cold_view = cold.acquire(1, shear);
  EXPECT_FALSE(cold_view->reused_base_order());
  expect_identical(cold_view->engine().solve(opt), hidden_surface_removal(direct_terrain, opt),
                   "full prepare");
}

TEST(EngineScoped, PrepareWithOrderOfRejectsMismatchedTerrains) {
  const Terrain t = make(Family::Fbm, 8);
  // Same topology but a rotated ground projection: the depth order is not
  // transferable and the guard must say so.
  const Terrain rotated = service::transform_terrain(t, {.dir_x = 0, .dir_y = 1});
  HsrEngine base;
  base.prepare(t);
  HsrEngine derived;
  EXPECT_THROW(derived.prepare_with_order_of(rotated, base), std::invalid_argument);
  // Different vertex count: rejected before any per-vertex comparison.
  const Terrain smaller = make(Family::Fbm, 6);
  EXPECT_THROW(derived.prepare_with_order_of(smaller, base), std::invalid_argument);
  // The pure z-shear image is transferable — the accept path still works.
  const Terrain sheared = service::transform_terrain(t, {.elev_num = 1, .elev_den = 2});
  derived.prepare_with_order_of(sheared, base);
  EXPECT_TRUE(derived.prepared());
}

TEST(EngineCacheTest, HitsMissesAndLruOrder) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  EngineCache cache;
  cache.add_terrain(1, t);
  const Viewpoint a{};
  const Viewpoint b{.elev_num = 1, .elev_den = 2};
  const Viewpoint c{.dir_x = 0, .dir_y = 1};

  (void)cache.acquire(1, a);
  (void)cache.acquire(1, b);
  (void)cache.acquire(1, c);
  EXPECT_EQ(cache.stats().misses, u64{3});
  EXPECT_EQ(cache.stats().hits, u64{0});

  bool hit = false;
  (void)cache.acquire(1, a, &hit);  // touch a => MRU order c-then-a flips
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().hits, u64{1});

  const auto resident = cache.resident();
  ASSERT_EQ(resident.size(), std::size_t{3});
  EXPECT_EQ(resident[0].second, service::canonical(a));
  EXPECT_EQ(resident[1].second, service::canonical(c));
  EXPECT_EQ(resident[2].second, service::canonical(b));

  // Scaled viewpoints share the canonical key: no fourth entry.
  (void)cache.acquire(1, Viewpoint{.dir_x = 9, .dir_y = 0, .elev_num = 0, .elev_den = 4}, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().resident_entries, u64{3});
}

TEST(EngineCacheTest, ByteBudgetEvictsLeastRecentlyUsed) {
  const auto t = make_shared_terrain(Family::Fbm, 10);
  // Size the budget from a real entry so exactly ~2 of 3 fit.
  EngineCache probe;
  probe.add_terrain(1, t);
  const u64 one = probe.acquire(1, Viewpoint{})->footprint_bytes();
  ASSERT_GT(one, u64{0});

  EngineCache cache({.byte_budget = 2 * one + one / 2});
  cache.add_terrain(1, t);
  (void)cache.acquire(1, Viewpoint{});
  (void)cache.acquire(1, Viewpoint{.elev_num = 1, .elev_den = 2});
  (void)cache.acquire(1, Viewpoint{.dir_x = 0, .dir_y = 1});
  const EngineCache::Stats s = cache.stats();
  EXPECT_GT(s.evictions, u64{0});
  EXPECT_LT(s.resident_entries, u64{3});
  // The canonical frame was the LRU entry: re-acquiring it is a miss.
  bool hit = true;
  (void)cache.acquire(1, Viewpoint{}, &hit);
  EXPECT_FALSE(hit);
}

TEST(EngineCacheTest, EntryLargerThanBudgetStillServes) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  EngineCache cache({.byte_budget = 1});  // nothing fits
  cache.add_terrain(1, t);
  const auto view = cache.acquire(1, Viewpoint{});
  ASSERT_NE(view, nullptr);
  (void)view->engine().solve({.algorithm = Algorithm::Sequential});
  // The entry being acquired is never evicted by its own acquire.
  EXPECT_EQ(cache.stats().resident_entries, u64{1});
}

TEST(EngineCacheTest, EvictedEntryLeaseStaysUsable) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  EngineCache cache({.byte_budget = 1});
  cache.add_terrain(1, t);
  const auto old = cache.acquire(1, Viewpoint{});
  (void)cache.acquire(1, Viewpoint{.elev_num = 1, .elev_den = 3});  // evicts the first
  EXPECT_GE(cache.stats().evictions, u64{1});
  const HsrResult direct = hidden_surface_removal(*t, {.algorithm = Algorithm::Sequential});
  expect_identical(old->engine().solve({.algorithm = Algorithm::Sequential}), direct,
                   "evicted lease");
}

TEST(EngineCacheTest, CacheHitSolveIsBitIdenticalToColdSolve) {
  const auto t = make_shared_terrain(Family::Spikes, 10);
  const Viewpoint vp{.dir_x = 1, .dir_y = 2};
  EngineCache cache;
  cache.add_terrain(1, t);
  const HsrOptions opt{.algorithm = Algorithm::Parallel};
  const HsrResult cold = cache.acquire(1, vp)->engine().solve(opt);
  bool hit = false;
  const HsrResult warm = cache.acquire(1, vp, &hit)->engine().solve(opt);
  EXPECT_TRUE(hit);
  expect_identical(warm, cold, "hit vs cold");
}

TEST(EngineCacheTest, RejectsUnknownIdsAndInadmissibleViewpoints) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  EngineCache cache;
  EXPECT_THROW(cache.add_terrain(1, nullptr), std::invalid_argument);
  EXPECT_FALSE(cache.has_terrain(1));
  EXPECT_THROW((void)cache.acquire(1, Viewpoint{}), std::invalid_argument);
  cache.add_terrain(1, t);
  EXPECT_TRUE(cache.has_terrain(1));
  EXPECT_THROW((void)cache.acquire(1, Viewpoint{.dir_x = kMaxCoord, .dir_y = 1}),
               std::invalid_argument);
  // A failed build is forgotten, not poisoned: good acquires still work.
  EXPECT_NE(cache.acquire(1, Viewpoint{}), nullptr);
}

// The tsan target of this file: concurrent acquires across hot and cold
// keys must build each entry once, keep counters consistent, and produce
// bit-identical solves from every thread.
TEST(EngineCacheTest, ConcurrentAcquiresAreConsistent) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  // Roomy budget: arena blocks are MB-scale, and an eviction would rebuild
  // an entry and legitimately inflate the miss count asserted below.
  EngineCache cache({.byte_budget = u64{1} << 30});
  cache.add_terrain(1, t);
  const std::vector<Viewpoint> vps = {
      Viewpoint{},
      Viewpoint{.elev_num = 1, .elev_den = 2},
      Viewpoint{.dir_x = 0, .dir_y = 1},
      Viewpoint{.dir_x = 1, .dir_y = 1},
  };
  // threads = 1: each solve stays on its thread, so its counters are exact
  // while the other threads solve.
  const HsrOptions opt{.algorithm = Algorithm::Sequential, .threads = 1};
  std::vector<HsrResult> direct;
  direct.reserve(vps.size());
  for (const Viewpoint& vp : vps) {
    direct.push_back(hidden_surface_removal(service::transform_terrain(*t, vp), opt));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t i = static_cast<std::size_t>(w + r) % vps.size();
        const auto view = cache.acquire(1, vps[i]);
        const HsrResult got = view->engine().solve(opt);
        if (direct[i].map.first_difference(got.map).has_value() ||
            !(got.stats.work == direct[i].stats.work)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const EngineCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, u64{kThreads * kRounds});
  // Every key was built at most once per residency span; with a roomy
  // budget that means exactly vps.size() misses.
  EXPECT_EQ(s.evictions, u64{0});
  EXPECT_EQ(s.misses, vps.size());
}

TEST(QueryServerTest, ServesQueriesBitIdenticalToDirectSolves) {
  const auto t = make_shared_terrain(Family::Fbm, 10);
  QueryServer server({.workers = 3});
  server.add_terrain(7, t);

  const std::vector<Viewpoint> vps = probe_viewpoints();
  std::vector<std::optional<QueryReply>> replies(2 * vps.size());
  std::mutex mu;
  for (std::size_t q = 0; q < replies.size(); ++q) {
    const bool ok = server.submit(
        Query{.terrain_id = 7, .viewpoint = vps[q % vps.size()], .tag = q},
        [&replies, &mu, q](QueryReply&& r) {
          const std::lock_guard<std::mutex> lk(mu);
          replies[q] = std::move(r);
        });
    EXPECT_TRUE(ok);
  }
  server.drain();

  for (std::size_t q = 0; q < replies.size(); ++q) {
    ASSERT_TRUE(replies[q].has_value()) << "query " << q << " never completed";
    const QueryReply& r = *replies[q];
    EXPECT_EQ(r.tag, q);
    ASSERT_EQ(r.status, QueryStatus::Ok) << r.error;
    ASSERT_TRUE(r.result.has_value());
    EXPECT_GT(r.latency_ns, u64{0});
    EXPECT_GE(r.latency_ns, r.solve_ns);
    const Terrain direct_terrain = service::transform_terrain(*t, vps[q % vps.size()]);
    expect_identical(*r.result, hidden_surface_removal(direct_terrain, HsrOptions{}),
                     "query " + std::to_string(q));
  }
  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(s.submitted, replies.size());
  EXPECT_EQ(s.completed, replies.size());
  EXPECT_EQ(s.dropped, u64{0});
  EXPECT_EQ(s.errors, u64{0});
  EXPECT_GT(server.cache_stats().hits, u64{0});  // repeated viewpoints hit
}

// Preparing an engine anywhere in the process must leave the work counters
// of solves running on other threads alone: every reply stays exact while
// a second thread keeps preparing an unrelated terrain.
TEST(QueryServerTest, ConcurrentPrepareKeepsReplyCountersExact) {
  const auto t = make_shared_terrain(Family::Fbm, 24);
  const HsrOptions opt{.algorithm = Algorithm::Sequential};
  const Counters want = hidden_surface_removal(*t, opt).stats.work;
  const Terrain other = make(Family::Fbm, 16, 2);

  constexpr std::size_t kQueries = 512;
  std::atomic<std::size_t> ok{0}, wrong{0};
  std::atomic<bool> stop{false};
  std::thread preparer([&] {
    HsrEngine engine;
    while (!stop.load(std::memory_order_relaxed)) engine.prepare(other);
  });
  {
    QueryServer server({.workers = 3});
    server.add_terrain(1, t);
    for (std::size_t q = 0; q < kQueries; ++q) {
      EXPECT_TRUE(server.submit(Query{.terrain_id = 1, .solve = opt, .tag = q},
                                [&](QueryReply&& r) {
                                  if (r.status != QueryStatus::Ok) return;
                                  ++ok;
                                  if (r.result->stats.work != want) ++wrong;
                                }));
    }
    server.drain();
  }
  stop.store(true, std::memory_order_relaxed);
  preparer.join();

  EXPECT_EQ(ok.load(), kQueries);
  EXPECT_EQ(wrong.load(), std::size_t{0}) << "replies with wrong work counters";
}

// Resolution-bounded queries (DESIGN.md section 1.12) flow through the
// server via Query::solve.pixel_budget. Preparation is budget-independent,
// so one cache entry serves exact and bounded queries alike, and at the
// budget's matching resolution the bounded reply rasterizes bitwise
// identically to the exact reply.
TEST(QueryServerTest, BoundedQueriesShareTheCacheAndMatchExactRasters) {
  const auto t = make_shared_terrain(Family::TerraceBack, 10);
  QueryServer server({.workers = 1});  // serialize: exactly one miss, one hit
  server.add_terrain(3, t);
  const Viewpoint vp{.dir_x = 2, .dir_y = 1};
  // Clients rasterize replies against the *view* terrain, so the budget is
  // derived from its window.
  const Terrain view = service::transform_terrain(*t, vp);
  const raster::RasterOptions ropt{.width = 24, .height = 16};
  HsrOptions bounded_opt;
  bounded_opt.pixel_budget = raster::pixel_budget(view, ropt);

  std::optional<QueryReply> exact, bounded;
  std::mutex mu;
  ASSERT_TRUE(server.submit(Query{.terrain_id = 3, .viewpoint = vp, .tag = 0},
                            [&](QueryReply&& r) {
                              const std::lock_guard<std::mutex> lk(mu);
                              exact = std::move(r);
                            }));
  ASSERT_TRUE(server.submit(
      Query{.terrain_id = 3, .viewpoint = vp, .solve = bounded_opt, .tag = 1},
      [&](QueryReply&& r) {
        const std::lock_guard<std::mutex> lk(mu);
        bounded = std::move(r);
      }));
  server.drain();

  ASSERT_TRUE(exact.has_value() && bounded.has_value());
  ASSERT_EQ(exact->status, QueryStatus::Ok) << exact->error;
  ASSERT_EQ(bounded->status, QueryStatus::Ok) << bounded->error;
  const raster::ImageRaster img_e = raster::rasterize(view, exact->result->map, ropt);
  const raster::ImageRaster img_b = raster::rasterize(view, bounded->result->map, ropt);
  EXPECT_EQ(img_b.ids, img_e.ids);
  EXPECT_EQ(img_b.depth, img_e.depth);
  EXPECT_EQ(img_b.coverage, img_e.coverage);
  EXPECT_EQ(img_b.crossings, img_e.crossings);
  EXPECT_EQ(img_b.hit_samples, img_e.hit_samples);
  // The bounded solve never materializes more than the exact one.
  EXPECT_LE(bounded->result->stats.k_pieces, exact->result->stats.k_pieces);
  EXPECT_LE(bounded->result->stats.treap_nodes, exact->result->stats.treap_nodes);
  // Both budgets were served by the same prepared engine: the second query
  // hit the (terrain, viewpoint) entry the first one built.
  EXPECT_EQ(server.cache_stats().misses, u64{1});
  EXPECT_GE(server.cache_stats().hits, u64{1});
}

TEST(QueryServerTest, BadQueriesYieldErrorRepliesNotCrashes) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  QueryServer server({.workers = 1});
  server.add_terrain(1, t);

  std::vector<QueryReply> replies;
  std::mutex mu;
  const auto collect = [&](QueryReply&& r) {
    const std::lock_guard<std::mutex> lk(mu);
    replies.push_back(std::move(r));
  };
  // Unregistered terrain, inadmissible viewpoint, per-query thread override.
  ASSERT_TRUE(server.submit(Query{.terrain_id = 99, .tag = 0}, collect));
  ASSERT_TRUE(server.submit(
      Query{.terrain_id = 1, .viewpoint = {.dir_x = kMaxCoord, .dir_y = 1}, .tag = 1}, collect));
  ASSERT_TRUE(server.submit(
      Query{.terrain_id = 1, .solve = {.threads = 4}, .tag = 2}, collect));
  // And a good one after the bad ones: the worker survived.
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1, .tag = 3}, collect));
  server.drain();

  ASSERT_EQ(replies.size(), std::size_t{4});
  for (const QueryReply& r : replies) {
    if (r.tag == 3) {
      EXPECT_EQ(r.status, QueryStatus::Ok) << r.error;
      EXPECT_TRUE(r.result.has_value());
    } else {
      EXPECT_EQ(r.status, QueryStatus::Error) << "tag " << r.tag;
      EXPECT_FALSE(r.error.empty());
      EXPECT_FALSE(r.result.has_value());
    }
  }
  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(s.completed, u64{4});
  EXPECT_EQ(s.errors, u64{3});
}

// A malformed pixel budget is input from the client: the solve must throw
// into an Error reply, not abort the server, and the worker must go on to
// serve the next query exactly.
TEST(QueryServerTest, MalformedPixelBudgetYieldsErrorReply) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  QueryServer server({.workers = 1});
  server.add_terrain(1, t);

  std::vector<QueryReply> replies;
  std::mutex mu;
  const auto collect = [&](QueryReply&& r) {
    const std::lock_guard<std::mutex> lk(mu);
    replies.push_back(std::move(r));
  };
  HsrOptions bad;
  bad.pixel_budget = PixelBudget{.y_lo = 4, .y_hi = 4, .y_samples = 8};
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1, .solve = bad, .tag = 0}, collect));
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1, .tag = 1}, collect));
  server.drain();

  ASSERT_EQ(replies.size(), std::size_t{2});
  for (const QueryReply& r : replies) {
    if (r.tag == 0) {
      EXPECT_EQ(r.status, QueryStatus::Error);
      EXPECT_FALSE(r.error.empty());
      EXPECT_FALSE(r.result.has_value());
    } else {
      ASSERT_EQ(r.status, QueryStatus::Ok) << r.error;
      ASSERT_TRUE(r.result.has_value());
      expect_identical(*r.result, hidden_surface_removal(*t, HsrOptions{}), "valid query");
    }
  }
  EXPECT_EQ(server.stats().errors, u64{1});
}

TEST(QueryServerTest, NonBlockingSubmitDropsWhenFull) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  QueryServer server({.workers = 1, .queue_capacity = 1, .block_when_full = false});
  server.add_terrain(1, t);

  // Occupy the lone worker: its callback blocks until we release it, while
  // the queue behind it fills.
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  std::promise<void> entered;
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1, .tag = 0}, [&](QueryReply&&) {
    entered.set_value();
    released.wait();
  }));
  entered.get_future().wait();

  std::atomic<int> completed{0};
  const auto count = [&](QueryReply&&) { completed.fetch_add(1); };
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1, .tag = 1}, count));   // fills the queue
  EXPECT_FALSE(server.submit(Query{.terrain_id = 1, .tag = 2}, count));  // dropped
  release.set_value();
  server.drain();

  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(s.submitted, u64{2});
  EXPECT_EQ(s.dropped, u64{1});
  EXPECT_EQ(s.completed, u64{2});
  EXPECT_EQ(completed.load(), 1);
}

TEST(QueryServerTest, RejectsBadOptionsAndNullTerrains) {
  EXPECT_THROW(QueryServer(ServerOptions{.workers = 0}), std::invalid_argument);
  EXPECT_THROW(QueryServer(ServerOptions{.queue_capacity = 0}), std::invalid_argument);
  QueryServer server({.workers = 1});
  EXPECT_THROW(server.add_terrain(1, nullptr), std::invalid_argument);
  EXPECT_FALSE(server.cache().has_terrain(1));
}

// Back-pressure under churn: three producers submit a fresh viewpoint per
// query into a two-slot queue that blocks when full, so producers really
// wait on the workers, and a one-byte cache budget makes every miss evict
// an entry another worker may still be solving on. Nothing may be dropped
// or fail, and every reply must equal the direct solve of the transformed
// terrain.
TEST(QueryServerTest, BlockingQueueSoaksChurnWithoutDrops) {
  const auto t = make_shared_terrain(Family::Fbm, 12);
  constexpr std::size_t kProducers = 3, kPerProducer = 40, kQueries = kProducers * kPerProducer;
  // Query k gets azimuth k mod 4 from a set with |dir_x| + |dir_y| <= 3 and
  // slope 1/den, den walking [2, den_max], where den_max is the largest
  // denominator the width budget admits: (den + 3) * M <= kMaxCoord
  // (DESIGN.md section 1.10). Consecutive k give distinct cache keys.
  const i64 den_max = std::max<i64>(kMaxCoord / std::max<i64>(t->max_abs_coord(), 1) - 3, 2);
  const auto fresh_viewpoint = [den_max](std::size_t k) {
    static constexpr std::pair<i64, i64> kAzimuths[] = {{1, 0}, {0, 1}, {2, -1}, {1, 1}};
    const auto& [dx, dy] = kAzimuths[k % 4];
    const i64 den = 2 + static_cast<i64>(k / 4) % std::max<i64>(den_max - 1, 1);
    return Viewpoint{.dir_x = dx, .dir_y = dy, .elev_num = 1, .elev_den = den};
  };

  std::vector<std::optional<QueryReply>> replies(kQueries);
  std::mutex mu;
  QueryServer server({.workers = 2,
                      .queue_capacity = 2,
                      .block_when_full = true,
                      .cache = {.byte_budget = 1}});
  server.add_terrain(1, t);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t q = 0; q < kPerProducer; ++q) {
        const std::size_t k = p + kProducers * q;
        (void)server.submit(Query{.terrain_id = 1, .viewpoint = fresh_viewpoint(k), .tag = k},
                            [&replies, &mu](QueryReply&& r) {
                              const std::lock_guard<std::mutex> lk(mu);
                              replies[r.tag] = std::move(r);
                            });
      }
    });
  }
  for (std::thread& th : producers) th.join();
  server.drain();

  const QueryServer::Stats s = server.stats();
  EXPECT_EQ(s.dropped, u64{0});
  EXPECT_EQ(s.errors, u64{0});
  EXPECT_EQ(s.submitted, kQueries);
  EXPECT_EQ(s.completed, kQueries);
  EXPECT_GT(server.cache_stats().evictions, u64{0});
  for (std::size_t k = 0; k < kQueries; ++k) {
    ASSERT_TRUE(replies[k].has_value()) << "query " << k << " never completed";
    ASSERT_EQ(replies[k]->status, QueryStatus::Ok) << replies[k]->error;
    // Serial like the server's own solves (maps and counters do not depend
    // on the thread count), which keeps the sanitizer runs short.
    const Terrain direct_terrain = service::transform_terrain(*t, fresh_viewpoint(k));
    expect_identical(*replies[k]->result, hidden_surface_removal(direct_terrain, {.threads = 1}),
                     "query " + std::to_string(k));
  }
}

TEST(QueryServerTest, StopIsIdempotentAndRefusesNewWork) {
  const auto t = make_shared_terrain(Family::Fbm, 8);
  QueryServer server({.workers = 2});
  server.add_terrain(1, t);
  std::atomic<int> completed{0};
  ASSERT_TRUE(server.submit(Query{.terrain_id = 1}, [&](QueryReply&&) { completed.fetch_add(1); }));
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(completed.load(), 1);  // accepted work finishes before stop returns
  EXPECT_FALSE(server.submit(Query{.terrain_id = 1}, [](QueryReply&&) {}));
  EXPECT_EQ(server.stats().dropped, u64{1});
}

}  // namespace
}  // namespace thsr

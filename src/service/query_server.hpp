#pragma once
/// \file query_server.hpp
/// The serving loop: a long-running pool of solver workers draining an
/// MPMC query queue against the byte-budgeted engine cache (DESIGN.md
/// section 1.10).
///
///   service::QueryServer server({.workers = 4});
///   server.add_terrain(1, terrain);
///   server.submit({.terrain_id = 1, .viewpoint = {.dir_x = 3, .dir_y = 4}},
///                 [](service::QueryReply&& r) { /* consume r.result */ });
///   server.drain();
///
/// Architecture: submit() enqueues into a bounded multi-producer queue and
/// returns immediately (or blocks / drops when full, by configuration);
/// worker threads pop queries, lease the (terrain, viewpoint) engine from
/// the shared EngineCache, and solve at threads = 1, entirely on their own
/// thread — the same per-item discipline as solve_batch's fan-out, so
/// per-query work counters are exact and replies are bit-identical to a
/// direct solve of the pre-transformed terrain no matter which worker
/// served them or how hot the cache was.
/// Queries are the unit of parallelism: each solve runs serially, and
/// throughput scales with the worker count instead of splitting one
/// solve's already-subsecond critical path.
///
/// Every reply carries the submit-to-completion latency in integer
/// nanoseconds; perfbench's `serve` workload turns sustained streams of
/// these into its latency and queries-per-second metrics, and
/// tests/test_service.cpp soaks the blocking queue under churn.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "service/engine_cache.hpp"

namespace thsr::service {

/// One viewpoint question against a registered terrain. `solve` selects
/// algorithm and oracle; its `threads`/`backend` must stay unset (each
/// query runs serially on its worker — the executor is the worker pool).
/// `solve.pixel_budget` (DESIGN.md section 1.12) is honored per query:
/// engine preparation is budget-independent, so exact and bounded
/// queries against the same (terrain, viewpoint) share one cache entry,
/// and a bounded reply rasterizes bit-identically to the exact one at
/// the budget's matching resolution.
struct Query {
  u64 terrain_id{0};
  Viewpoint viewpoint{};
  HsrOptions solve{};
  u64 tag{0};  ///< echoed back verbatim in the reply
};

enum class QueryStatus : unsigned char {
  Ok,     ///< solved; `result` is the answer
  Error,  ///< rejected or failed; `error` says why, `result` is empty
};

/// Completion record for one query, delivered to the submit callback on
/// the worker thread that served it.
struct QueryReply {
  u64 tag{0};
  QueryStatus status{QueryStatus::Ok};
  u64 latency_ns{0};    ///< submit() to completion
  u64 solve_ns{0};      ///< the solve alone (excludes queueing and cache)
  bool cache_hit{false};        ///< engine was resident (no prepare paid)
  std::optional<HsrResult> result;  ///< engaged when Ok (moved, caller-owned)
  std::string error;                ///< engaged when status == Error
};

/// Called on a worker thread when its query completes. Keep it cheap — it
/// runs inside the serving loop; move the reply out for heavy work.
using ReplyFn = std::function<void(QueryReply&&)>;

struct ServerOptions {
  int workers{2};                  ///< solver threads (>= 1)
  std::size_t queue_capacity{256}; ///< bounded queue length (>= 1)
  /// When the queue is full: true = submit() blocks until space (the
  /// closed-loop default guaranteeing zero drops), false = submit()
  /// returns false and the query counts as dropped (open-loop overload
  /// behavior; tests/test_service.cpp exercises both).
  bool block_when_full{true};
  EngineCache::Options cache{};    ///< budget for the shared engine cache
};

class QueryServer {
 public:
  struct Stats {
    u64 submitted{0};  ///< accepted into the queue
    u64 dropped{0};    ///< rejected at submit (queue full or stopping)
    u64 completed{0};  ///< replies delivered (Ok or Error)
    u64 errors{0};     ///< replies with status Error
  };

  /// Start `opt.workers` solver threads immediately.
  /// \throws std::invalid_argument when `opt.workers` < 1 or
  ///         `opt.queue_capacity` < 1 (before any thread starts).
  explicit QueryServer(const ServerOptions& opt = {});
  ~QueryServer();  ///< stop()s if still running
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Register a terrain with the underlying cache (may be called any time).
  /// \throws std::invalid_argument when `t` is null.
  void add_terrain(u64 id, std::shared_ptr<const Terrain> t);

  /// Enqueue a query. True = accepted (the callback will run exactly
  /// once); false = dropped (queue full with block_when_full off, or the
  /// server is stopping) and the callback never runs.
  bool submit(Query q, ReplyFn on_reply);

  /// Block until every accepted query has completed (the queue is empty
  /// and no solve is in flight). New submissions remain possible.
  void drain();

  /// Stop accepting, finish every already-accepted query, join workers.
  /// Idempotent.
  void stop();

  Stats stats() const;
  EngineCache::Stats cache_stats() const;  ///< shared cache counters
  EngineCache& cache();  ///< the shared cache (introspection, pre-warming)

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace thsr::service

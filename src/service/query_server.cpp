#include "service/query_server.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "support/stopwatch.hpp"

namespace thsr::service {

namespace {

/// The options, once checked: a server without a worker or a queue slot
/// could never answer, so it is refused before any thread starts.
const ServerOptions& validated(const ServerOptions& opt) {
  if (opt.workers < 1) throw std::invalid_argument("QueryServer: workers must be >= 1");
  if (opt.queue_capacity < 1) {
    throw std::invalid_argument("QueryServer: queue_capacity must be >= 1");
  }
  return opt;
}

}  // namespace

struct QueryServer::Impl {
  struct Item {
    Query query;
    ReplyFn on_reply;
    Stopwatch since_submit;
  };

  ServerOptions opt;
  EngineCache cache;

  std::mutex mu;  ///< guards queue, counters, and the lifecycle flags
  std::condition_variable not_empty;  ///< signals workers: work or shutdown
  std::condition_variable not_full;   ///< signals blocked producers
  std::condition_variable idle;       ///< signals drain(): nothing queued or in flight
  std::deque<Item> queue;
  u64 in_flight{0};
  bool stopping{false};
  Stats stats;

  std::vector<std::thread> workers;

  explicit Impl(const ServerOptions& o) : opt(o), cache(o.cache) {}

  /// Serve one query end to end on this worker thread. Never throws: every
  /// failure becomes an Error reply so the loop survives bad queries.
  void serve(Item&& item) {
    QueryReply reply;
    reply.tag = item.query.tag;
    try {
      if (item.query.solve.threads != 0 || item.query.solve.backend) {
        throw std::invalid_argument(
            "QueryServer: per-query threads/backend are not configurable — each query runs "
            "serially on its worker");
      }
      const std::shared_ptr<PreparedView> view =
          cache.acquire(item.query.terrain_id, item.query.viewpoint, &reply.cache_hit);
      HsrOptions opt = item.query.solve;
      opt.threads = 1;  // the solve stays on this worker
      const Stopwatch solve_clock;
      reply.result = view->engine().solve(opt);
      reply.solve_ns = solve_clock.nanoseconds();
    } catch (const std::exception& e) {
      reply.status = QueryStatus::Error;
      reply.error = e.what();
    }
    reply.latency_ns = item.since_submit.nanoseconds();
    const bool errored = reply.status == QueryStatus::Error;
    if (item.on_reply) item.on_reply(std::move(reply));
    {
      const std::lock_guard<std::mutex> lk(mu);
      ++stats.completed;
      if (errored) ++stats.errors;
      --in_flight;
      if (queue.empty() && in_flight == 0) idle.notify_all();
    }
  }

  void worker_loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lk(mu);
        not_empty.wait(lk, [&] { return stopping || !queue.empty(); });
        if (queue.empty()) return;  // stopping and fully drained
        item = std::move(queue.front());
        queue.pop_front();
        ++in_flight;
        not_full.notify_one();
      }
      serve(std::move(item));
    }
  }
};

QueryServer::QueryServer(const ServerOptions& opt)
    : impl_(std::make_unique<Impl>(validated(opt))) {
  impl_->workers.reserve(static_cast<std::size_t>(opt.workers));
  for (int i = 0; i < opt.workers; ++i) {
    impl_->workers.emplace_back([im = impl_.get()] { im->worker_loop(); });
  }
}

QueryServer::~QueryServer() { stop(); }

void QueryServer::add_terrain(u64 id, std::shared_ptr<const Terrain> t) {
  impl_->cache.add_terrain(id, std::move(t));
}

bool QueryServer::submit(Query q, ReplyFn on_reply) {
  Impl& im = *impl_;
  const Stopwatch since_submit;
  {
    std::unique_lock<std::mutex> lk(im.mu);
    if (im.opt.block_when_full) {
      im.not_full.wait(lk, [&] { return im.stopping || im.queue.size() < im.opt.queue_capacity; });
    }
    if (im.stopping || im.queue.size() >= im.opt.queue_capacity) {
      ++im.stats.dropped;
      return false;
    }
    im.queue.push_back(Impl::Item{std::move(q), std::move(on_reply), since_submit});
    ++im.stats.submitted;
  }
  im.not_empty.notify_one();
  return true;
}

void QueryServer::drain() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lk(im.mu);
  im.idle.wait(lk, [&] { return im.queue.empty() && im.in_flight == 0; });
}

void QueryServer::stop() {
  Impl& im = *impl_;
  {
    // Safe when already stopped: joinable() below guards the second pass.
    const std::lock_guard<std::mutex> lk(im.mu);
    im.stopping = true;
  }
  im.not_empty.notify_all();
  im.not_full.notify_all();
  for (std::thread& w : im.workers) {
    if (w.joinable()) w.join();
  }
}

QueryServer::Stats QueryServer::stats() const {
  const std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->stats;
}

EngineCache::Stats QueryServer::cache_stats() const { return impl_->cache.stats(); }

EngineCache& QueryServer::cache() { return impl_->cache; }

}  // namespace thsr::service

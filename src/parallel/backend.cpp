#include "parallel/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace thsr::par {
namespace {

std::atomic<int> g_threads{0};   // 0 = not set yet: use hardware default
std::atomic<int> g_backend{-1};  // -1 = not resolved yet; else int(Backend)

Backend resolve_backend() noexcept {
  if (const char* env = std::getenv("THSR_BACKEND")) {
    if (const auto b = parse_backend(env)) return *b;
    if (env[0] != '\0') {
      std::fprintf(stderr, "thsr: unknown THSR_BACKEND=%s (serial|pool); using pool\n", env);
    }
  }
  return Backend::Pool;
}

}  // namespace

Backend backend() noexcept {
  int b = g_backend.load(std::memory_order_acquire);
  if (b < 0) {
    int expected = -1;
    g_backend.compare_exchange_strong(expected, static_cast<int>(resolve_backend()),
                                      std::memory_order_acq_rel, std::memory_order_acquire);
    b = g_backend.load(std::memory_order_acquire);
  }
  return static_cast<Backend>(b);
}

void set_backend(Backend b) noexcept {
  g_backend.store(static_cast<int>(b), std::memory_order_release);
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::Serial: return "serial";
    case Backend::Pool: return "pool";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "serial") return Backend::Serial;
  if (name == "pool") return Backend::Pool;
  return std::nullopt;
}

std::vector<Backend> available_backends() { return {Backend::Serial, Backend::Pool}; }

namespace {
thread_local int t_serial_depth = 0;

// max_threads() without the SerialRegion mask: the globally configured
// worker count. ScopedConfig snapshots this — snapshotting the masked
// value from inside a SerialRegion would "restore" the global count to 1.
int configured_threads() noexcept {
  const int p = g_threads.load(std::memory_order_relaxed);
  if (p > 0) return p;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace

bool serial_forced() noexcept { return t_serial_depth > 0; }

SerialRegion::SerialRegion() noexcept { ++t_serial_depth; }
SerialRegion::~SerialRegion() { --t_serial_depth; }

ScopedConfig::ScopedConfig(int threads, std::optional<Backend> b) noexcept
    : prev_threads_(configured_threads()), prev_backend_(backend()) {
  if (threads > 0) {
    set_threads(threads);
    restore_threads_ = true;
  }
  if (b) {
    set_backend(*b);
    restore_backend_ = true;
  }
}

ScopedConfig::~ScopedConfig() {
  if (restore_backend_) set_backend(prev_backend_);
  if (restore_threads_) set_threads(prev_threads_);
}

int max_threads() noexcept { return serial_forced() ? 1 : configured_threads(); }

void set_threads(int p) noexcept { g_threads.store(std::max(1, p), std::memory_order_relaxed); }

bool in_parallel() noexcept { return pool::on_worker(); }

int worker_index() noexcept { return std::max(0, pool::worker_id()); }

}  // namespace thsr::par

#include "parallel/backend.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace thsr::par {
namespace {

Backend resolve_backend() noexcept {
  if (const char* env = std::getenv("THSR_BACKEND")) {
    if (const auto b = parse_backend(env)) return *b;
    if (env[0] != '\0') {
      std::fprintf(stderr, "thsr: unknown THSR_BACKEND=%s (serial|pool); using pool\n", env);
    }
  }
  return Backend::Pool;
}

// The calling thread's ScopedConfig overrides; 0 / nullopt = the default.
thread_local int t_threads = 0;
thread_local std::optional<Backend> t_backend;

}  // namespace

Backend backend() noexcept {
  if (t_backend) return *t_backend;
  static const Backend b = resolve_backend();
  return b;
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

int max_threads() noexcept {
  if (t_threads > 0) return t_threads;
  static const int p = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return p;
}

bool runs_inline() noexcept { return max_threads() == 1 || backend() == Backend::Serial; }

ScopedConfig::ScopedConfig(int threads, std::optional<Backend> b) noexcept
    : prev_threads_(t_threads), prev_backend_(t_backend) {
  if (threads > 0) t_threads = threads;
  if (b) t_backend = b;
}

ScopedConfig::~ScopedConfig() {
  t_threads = prev_threads_;
  t_backend = prev_backend_;
}

bool in_parallel() noexcept { return pool::on_worker(); }

int worker_index() noexcept { return std::max(0, pool::worker_id()); }

}  // namespace thsr::par

#pragma once
/// \file pool.hpp
/// Native work-stealing fork-join pool: the library's one parallel executor
/// and its realization of the CREW PRAM (DESIGN.md section 1.1). Every
/// worker owns a Chase–Lev deque; fork pushes a stack-allocated task onto
/// the forking worker's deque, join pops it back (the common,
/// contention-free case) or helps by stealing until the thief finishes it.
///
/// A pool of p workers is the external caller plus p-1 pool threads:
/// run_root() lets the first external caller take the pool's caller slot
/// and run its root as worker 0, with a stealable deque of its own. A
/// second concurrent external caller injects its root instead and parks
/// until a pool thread completes it. So the worker count p a root asks for
/// (par::max_threads() on its calling thread) bounds total concurrency by
/// p, except that a resize requested while roots are in flight is deferred
/// — the old worker count applies until the next quiet root.
///
/// The implementation avoids standalone atomic fences so ThreadSanitizer
/// can reason about every synchronization edge (the tsan CI preset runs
/// the whole suite on this executor).

#include <atomic>
#include <utility>

#include "geometry/exactq.hpp"

namespace thsr::par::pool {

/// A unit of fork-join work. The object lives on the forking frame's stack
/// (the frame never unwinds past join()), so no allocation is needed per
/// fork. `pending` is the join flag: 1 while unfinished, 0 when done. The
/// executor never touches a task after storing pending=0 (the waiter may
/// destroy it the moment it observes 0); root-completion wakeups go
/// through the pool's own long-lived condition variable instead.
struct Task {
  void (*run)(Task*) = nullptr;
  bool is_root = false;  // set by run_root on the injected path
  std::atomic<u32> pending{1};
};

/// Task holding an arbitrary callable by value. Tasks must not throw: an
/// exception escaping one terminates the process, since other workers may
/// still be running forks that point into the unwinding frames.
template <typename F>
class Closure final : public Task {
 public:
  explicit Closure(F f) : f_(std::move(f)) { run = &Closure::invoke; }

 private:
  static void invoke(Task* t) noexcept { static_cast<Closure*>(t)->f_(); }
  F f_;
};

/// True when the calling thread is a pool worker — a pool thread, or an
/// external caller while it runs its root in the caller slot.
bool on_worker() noexcept;

/// Index of the calling worker in [0, p) (the caller slot is 0), or -1
/// outside the pool.
int worker_id() noexcept;

/// Run `t` to completion on a pool of `want_workers` workers, returning
/// when it is done. Runs inline when the pool is shut down, when
/// want_workers <= 1, or when already on a worker.
void run_root(Task* t, int want_workers);

/// Push `t` onto the calling worker's deque. Must be called on a worker.
void push(Task* t);

/// Wait for `t` to finish, executing other pool work while waiting.
/// Must be called on the worker that pushed `t`.
void join(Task* t);

}  // namespace thsr::par::pool

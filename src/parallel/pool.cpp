#include "parallel/pool.hpp"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace thsr::par::pool {
namespace {

constexpr std::size_t kCacheLine = 64;

/// How long an idle pool thread keeps polling for work, yielding between
/// polls, after its last task or the last root start/end before it parks.
/// It covers the serial gaps between the many short roots of one solve,
/// so each root finds its workers awake instead of paying a wakeup.
constexpr auto kIdleSpin = std::chrono::milliseconds(5);

/// Park length of a worker whose spin ran out while a root is in flight.
constexpr auto kRootPark = std::chrono::microseconds(200);

/// Chase–Lev work-stealing deque of Task*. The owning worker pushes and
/// pops at the bottom; thieves take from the top. This is the classic
/// algorithm (Chase & Lev, SPAA 2005) with two deliberate strengthenings:
/// slots are atomics and the top/bottom protocol uses seq_cst operations
/// instead of standalone fences, so ThreadSanitizer models every edge
/// (and the cost is irrelevant at fork-join granularity).
class Deque {
 public:
  Deque() : array_(new Array(kInitialCap)) {}
  ~Deque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }
  Deque(const Deque&) = delete;
  Deque& operator=(const Deque&) = delete;

  /// Owner only.
  void push(Task* t) {
    const i64 b = bottom_.load(std::memory_order_relaxed);
    const i64 tp = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - tp > static_cast<i64>(a->cap) - 1) a = grow(a, tp, b);
    a->put(b, t);
    bottom_.store(b + 1, std::memory_order_seq_cst);  // publishes the slot
  }

  /// Owner only. Returns nullptr when empty (or lost the last element race).
  Task* pop() {
    const i64 b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    i64 tp = top_.load(std::memory_order_seq_cst);
    Task* result = nullptr;
    if (tp <= b) {
      result = a->get(b);
      if (tp == b) {
        // Last element: race the thieves for it via top.
        if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          result = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return result;
  }

  /// Any thread. Returns nullptr when empty or on a lost race.
  Task* steal() {
    i64 tp = top_.load(std::memory_order_seq_cst);
    const i64 b = bottom_.load(std::memory_order_seq_cst);
    if (tp >= b) return nullptr;
    // A stale array_ is benign: grow() only copies, it never mutates the
    // old array, and retired arrays stay alive until the deque dies.
    Array* a = array_.load(std::memory_order_acquire);
    Task* result = a->get(tp);
    if (!top_.compare_exchange_strong(tp, tp + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return result;
  }

 private:
  static constexpr std::size_t kInitialCap = 256;

  struct Array {
    explicit Array(std::size_t c) : cap(c), mask(c - 1), slots(new std::atomic<Task*>[c]) {}
    ~Array() { delete[] slots; }
    Task* get(i64 i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(std::memory_order_relaxed);
    }
    void put(i64 i, Task* t) {
      slots[static_cast<std::size_t>(i) & mask].store(t, std::memory_order_relaxed);
    }
    const std::size_t cap, mask;
    std::atomic<Task*>* const slots;
  };

  Array* grow(Array* old, i64 tp, i64 b) {
    auto* bigger = new Array(old->cap * 2);
    for (i64 i = tp; i < b; ++i) bigger->put(i, old->get(i));
    retired_.push_back(old);  // thieves may still hold a pointer to it
    array_.store(bigger, std::memory_order_seq_cst);
    return bigger;
  }

  alignas(kCacheLine) std::atomic<i64> top_{0};
  alignas(kCacheLine) std::atomic<i64> bottom_{0};
  alignas(kCacheLine) std::atomic<Array*> array_;
  std::vector<Array*> retired_;  // owner-only, freed with the deque
};

/// One worker slot. Slots 1..p-1 each own a pool thread; slot 0 is the
/// caller slot, whose deque belongs to whichever external caller holds it.
struct Worker {
  Deque deque;
  std::thread thread;
};

thread_local int tl_worker_id = -1;

struct Pool {
  // lifecycle_mu serializes resize/shutdown end to end (held across worker
  // joins — never taken by workers); mu only guards sleeping and root
  // completion (taken by workers in wait, so it must NOT be held while
  // joining them).
  std::mutex lifecycle_mu;
  std::mutex mu;
  std::condition_variable wake;  // parked workers: a root started, or stopping
  std::condition_variable done;  // injected roots' callers: a root finished
  std::vector<std::unique_ptr<Worker>> workers;  // stable pointers; [0] = caller slot
  std::atomic<int> n_workers{0};
  std::atomic<int> active_roots{0};
  std::atomic<u64> root_events{0};  // bumped when a root starts or ends
  std::atomic<int> sleepers{0};     // workers inside park()
  std::atomic<bool> resizing{false};
  std::atomic<bool> caller_slot_taken{false};
  std::atomic<bool> stopping{false};
  bool dead{false};  // set at static destruction; guarded by lifecycle_mu
  std::mutex inject_mu;
  std::vector<Task*> inject;        // FIFO of roots from concurrent callers
  std::atomic<int> inject_size{0};  // lock-free emptiness check for find_task

  static Pool& get() {
    static Pool p;
    return p;
  }

  ~Pool() {
    std::lock_guard<std::mutex> lk(lifecycle_mu);
    stop_workers_locked();
    dead = true;
  }

  /// Requires lifecycle_mu. Workers are only stopped when no root is
  /// active, so their deques are empty and they are idle or asleep.
  void stop_workers_locked() {
    if (workers.empty()) return;
    stopping.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(mu);  // pair with the wake.wait predicate
    }
    wake.notify_all();
    for (auto& w : workers) {
      if (w->thread.joinable()) w->thread.join();
    }
    workers.clear();
    n_workers.store(0, std::memory_order_seq_cst);
    stopping.store(false, std::memory_order_seq_cst);
  }

  /// Requires lifecycle_mu. Rebuilds the pool at `want` workers, unless a
  /// root is in flight: then the resize is deferred to a later quiet root.
  void resize_locked(int want) {
    if (static_cast<int>(workers.size()) == want) return;
    resizing.store(true, std::memory_order_seq_cst);
    if (active_roots.load(std::memory_order_seq_cst) == 0) {
      stop_workers_locked();
      workers.reserve(static_cast<std::size_t>(want));
      for (int i = 0; i < want; ++i) workers.push_back(std::make_unique<Worker>());
      n_workers.store(want, std::memory_order_seq_cst);
      for (int i = 1; i < want; ++i) {
        workers[static_cast<std::size_t>(i)]->thread = std::thread([this, i] { worker_main(i); });
      }
    }
    resizing.store(false, std::memory_order_seq_cst);
  }

  /// Registers a root in flight, resizing the pool to `want` workers first
  /// when none is. False once the pool is dead.
  bool enter(int want) {
    for (;;) {
      if (n_workers.load(std::memory_order_acquire) != want) {
        std::lock_guard<std::mutex> lk(lifecycle_mu);
        if (dead) return false;
        resize_locked(want);
      }
      // Dekker pair with resize_locked (all seq_cst): either the resize
      // sees this root and defers, or this root sees the resize and waits
      // it out on lifecycle_mu before trying again.
      active_roots.fetch_add(1, std::memory_order_seq_cst);
      if (!resizing.load(std::memory_order_seq_cst)) break;
      active_roots.fetch_sub(1, std::memory_order_seq_cst);
      std::lock_guard<std::mutex> lk(lifecycle_mu);
    }
    root_events.fetch_add(1, std::memory_order_relaxed);
    // Dekker pair with park(): either the parking worker sees this root,
    // or this sees the worker among the sleepers and wakes it.
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      {
        std::lock_guard<std::mutex> lk(mu);
      }
      wake.notify_all();
    }
    return true;
  }

  void leave() {
    root_events.fetch_add(1, std::memory_order_relaxed);
    active_roots.fetch_sub(1, std::memory_order_seq_cst);
  }

  Task* pop_injected() {
    // Cheap pre-check: find_task runs continuously on every idle worker,
    // so taking the mutex only when a root is actually queued keeps the
    // steal path lock-free in the common case.
    if (inject_size.load(std::memory_order_acquire) == 0) return nullptr;
    std::lock_guard<std::mutex> lk(inject_mu);
    if (inject.empty()) return nullptr;
    Task* t = inject.front();
    inject.erase(inject.begin());
    inject_size.fetch_sub(1, std::memory_order_acq_rel);
    return t;
  }

  /// Only pool threads take injected roots: a caller that picked up a whole
  /// foreign root while joining its own would return late.
  Task* find_task(int id) {
    Worker& self = *workers[static_cast<std::size_t>(id)];
    if (Task* t = self.deque.pop()) return t;
    if (id != 0) {
      if (Task* t = pop_injected()) return t;
    }
    const int n = n_workers.load(std::memory_order_relaxed);
    // Deterministic round-robin starting after self: victim order does not
    // affect results (CREW), only load balance, and it is cheap.
    for (int i = 1; i < n; ++i) {
      const int victim = (id + i) % n;
      if (Task* t = workers[static_cast<std::size_t>(victim)]->deque.steal()) return t;
    }
    return nullptr;
  }

  void execute_task(Task* t) {
    t->run(t);
    // Everything about `t` must be read before the store: the waiter may
    // observe pending==0 and destroy the (stack-allocated) task at once.
    const bool is_root = t->is_root;
    t->pending.store(0, std::memory_order_release);
    if (is_root) {
      // Wake the injecting caller via the pool's cv (which outlives every
      // task) — notifying t->pending itself after the store would race
      // with the task's destruction.
      {
        std::lock_guard<std::mutex> lk(mu);
      }
      done.notify_all();
    }
  }

  /// The second concurrent external caller's path: queue the root for a
  /// pool thread and sleep until it completes.
  void inject_and_wait(Task* t) {
    t->is_root = true;
    {
      std::lock_guard<std::mutex> lk(inject_mu);
      inject.push_back(t);
      inject_size.fetch_add(1, std::memory_order_acq_rel);
    }
    std::unique_lock<std::mutex> lk(mu);
    done.wait(lk, [t] { return t->pending.load(std::memory_order_acquire) == 0; });
  }

  void worker_main(int id) {
    tl_worker_id = id;
    using Clock = std::chrono::steady_clock;
    Clock::time_point idle_since;
    u64 idle_events = 0;
    bool idle = false;
    for (;;) {
      if (Task* t = find_task(id)) {
        execute_task(t);
        idle = false;
        continue;
      }
      if (stopping.load(std::memory_order_acquire)) return;
      // Spin (yielding) for kIdleSpin after the last task or root event,
      // so the next root of a solve finds its workers awake; then park.
      const Clock::time_point now = Clock::now();
      const u64 events = root_events.load(std::memory_order_relaxed);
      if (!idle || events != idle_events) {
        idle = true;
        idle_since = now;
        idle_events = events;
      }
      if (now - idle_since < kIdleSpin) {
        std::this_thread::yield();
      } else {
        park();
      }
    }
  }

  /// Sleep until a root starts or the pool stops. While a root is in
  /// flight, sleep only kRootPark: fork pushes never notify, so the park
  /// must self-wake to look for them.
  void park() {
    std::unique_lock<std::mutex> lk(mu);
    sleepers.fetch_add(1, std::memory_order_seq_cst);
    if (active_roots.load(std::memory_order_seq_cst) > 0) {
      wake.wait_for(lk, kRootPark);
    } else {
      wake.wait(lk, [this] {
        return stopping.load(std::memory_order_acquire) ||
               active_roots.load(std::memory_order_seq_cst) > 0;
      });
    }
    sleepers.fetch_sub(1, std::memory_order_seq_cst);
  }
};

}  // namespace

bool on_worker() noexcept { return tl_worker_id >= 0; }

int worker_id() noexcept { return tl_worker_id; }

void run_root(Task* t, int want_workers) {
  Pool& p = Pool::get();
  if (tl_worker_id >= 0 || want_workers <= 1 || !p.enter(want_workers)) {
    // Inline: nested in a worker, a single worker, or the pool is shut
    // down (then its condition variables must not be touched at all).
    t->run(t);
    return;
  }
  if (!p.caller_slot_taken.exchange(true, std::memory_order_acquire)) {
    // The caller runs its root as worker 0: its forks land on slot 0's
    // deque for the pool threads to steal, and it helps while joining.
    tl_worker_id = 0;
    t->run(t);
    tl_worker_id = -1;
    p.caller_slot_taken.store(false, std::memory_order_release);
  } else {
    p.inject_and_wait(t);
  }
  p.leave();
}

void push(Task* t) {
  THSR_DCHECK(tl_worker_id >= 0);
  Pool& p = Pool::get();
  p.workers[static_cast<std::size_t>(tl_worker_id)]->deque.push(t);
}

void join(Task* t) {
  THSR_DCHECK(tl_worker_id >= 0);
  Pool& p = Pool::get();
  while (t->pending.load(std::memory_order_acquire) != 0) {
    // Help instead of blocking: drain our own deque (LIFO gives back the
    // task we just pushed in the common unstolen case), then steal. Pure
    // loads on `pending` — join never waits on the task's atomic, so the
    // executor never has to touch a task after marking it done.
    if (Task* w = p.find_task(tl_worker_id)) {
      p.execute_task(w);
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace thsr::par::pool

#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

namespace perfbench {

std::atomic<bool> Tracer::on_{false};

namespace {

std::mutex g_mu;
std::vector<TraceEvent> g_events;  // guarded by g_mu

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1);
  return id;
}

/// Length of the union of [a, b) intervals, each clipped to [lo, hi).
u64 union_length(std::vector<std::pair<u64, u64>> iv, u64 lo, u64 hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  u64 covered = 0, end = lo;
  for (const auto& [a, b] : iv) {
    const u64 from = std::max(a, end);
    if (b > from) {
      covered += b - from;
      end = b;
    }
  }
  return covered;
}

/// Events grouped by operation id, each group ordered by start time
/// (longer first on ties, so an enclosing span precedes what it encloses).
std::map<u64, std::vector<const TraceEvent*>> by_op(const std::vector<TraceEvent>& ev) {
  std::map<u64, std::vector<const TraceEvent*>> m;
  for (const TraceEvent& e : ev) m[e.op].push_back(&e);
  for (auto& [op, list] : m) {
    std::sort(list.begin(), list.end(), [](const TraceEvent* a, const TraceEvent* b) {
      return a->t0 != b->t0 ? a->t0 < b->t0 : a->t1 > b->t1;
    });
  }
  return m;
}

/// Self time of list[i]: its duration minus the union of the same
/// operation's later-ordered spans nested inside it.
u64 self_ns(const std::vector<const TraceEvent*>& list, std::size_t i) {
  const TraceEvent& e = *list[i];
  std::vector<std::pair<u64, u64>> inner;
  for (std::size_t j = i + 1; j < list.size() && list[j]->t0 < e.t1; ++j) {
    if (list[j]->t1 <= e.t1) inner.emplace_back(list[j]->t0, list[j]->t1);
  }
  return (e.t1 - e.t0) - union_length(std::move(inner), e.t0, e.t1);
}

}  // namespace

u64 now_ns() noexcept {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

void Tracer::record(const char* name, u64 t0, u64 t1, u64 op, bool reported) {
  const unsigned tid = thread_index();
  std::lock_guard<std::mutex> lk(g_mu);
  g_events.push_back(TraceEvent{name, t0, t1, op, tid, reported});
}

std::vector<TraceEvent> Tracer::events() {
  std::lock_guard<std::mutex> lk(g_mu);
  return g_events;
}

std::map<u64, double> Tracer::ms_by_op(std::string_view name) {
  std::map<u64, double> out;
  for (const TraceEvent& e : events()) {
    if (name == e.name) out[e.op] += static_cast<double>(e.t1 - e.t0) * 1e-6;
  }
  return out;
}

double Tracer::coverage(std::string_view op_name) {
  const std::vector<TraceEvent> ev = events();
  u64 wall = 0, covered = 0;
  for (const auto& [op, list] : by_op(ev)) {
    for (const TraceEvent* top : list) {
      if (op_name != top->name) continue;
      std::vector<std::pair<u64, u64>> kids;
      for (const TraceEvent* k : list) {
        if (k != top) kids.emplace_back(k->t0, k->t1);
      }
      wall += top->t1 - top->t0;
      covered += union_length(std::move(kids), top->t0, top->t1);
    }
  }
  return wall ? static_cast<double>(covered) / static_cast<double>(wall) : 0.0;
}

bool Tracer::write_chrome_json(const std::string& path) {
  const std::vector<TraceEvent> ev = events();
  std::ofstream os(path);
  if (!os) return false;
  u64 base = ev.empty() ? 0 : ev.front().t0;
  for (const TraceEvent& e : ev) base = std::min(base, e.t0);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const TraceEvent& e = ev[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"reported\":%s}}",
                  i ? "," : "", e.name,
                  static_cast<int>(std::string_view(e.name).find('.')), e.name, e.tid,
                  static_cast<double>(e.t0 - base) * 1e-3, static_cast<double>(e.t1 - e.t0) * 1e-3,
                  static_cast<unsigned long long>(e.op), e.reported ? "true" : "false");
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

bool Tracer::write_summary(const std::string& path) {
  const std::vector<TraceEvent> ev = events();
  struct Row {
    u64 count{0}, total{0}, self{0};
    std::vector<u64> durs;
    bool reported{false};
  };
  std::map<std::string, Row> rows;
  for (const auto& [op, list] : by_op(ev)) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const TraceEvent* e = list[i];
      Row& r = rows[e->name];
      ++r.count;
      r.total += e->t1 - e->t0;
      r.self += self_ns(list, i);
      r.durs.push_back(e->t1 - e->t0);
      r.reported = r.reported || e->reported;
    }
  }
  std::ofstream os(path);
  if (!os) return false;
  os << "# span                          count     total_ms      self_ms    median_ms\n";
  char buf[256];
  for (auto& [name, r] : rows) {
    std::sort(r.durs.begin(), r.durs.end());
    const double med = static_cast<double>(r.durs[r.durs.size() / 2]) * 1e-6;
    std::snprintf(buf, sizeof buf, "%-30s %6llu %12.3f %12.3f %12.4f%s\n", name.c_str(),
                  static_cast<unsigned long long>(r.count), static_cast<double>(r.total) * 1e-6,
                  static_cast<double>(r.self) * 1e-6, med,
                  r.reported ? "  (library-reported)" : "");
    os << buf;
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench

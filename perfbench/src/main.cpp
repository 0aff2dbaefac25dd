/// thsr_perfbench — end-to-end benchmark of the three product paths.
///
///   thsr_perfbench --workload viewshed|serve|stream --seed N --seconds S
///                  --trace 0|1 [--quick] [--work-dir DIR]
///
/// Untraced (--trace 0): runs the workload and prints its end-to-end
/// metrics. Traced (--trace 1): runs the named workload for S seconds and
/// the other two for a short pass, with spans on, and prints every
/// per-layer metric (each owned by one workload); writes the spans as
/// Chrome trace-event JSON and a per-span summary into the work dir.
///
/// The last line of standard output is one JSON object:
///   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
/// Exit status: 0 on a completed run (even with failed operations, which
/// the JSON reports), 2 on bad arguments, 1 when a workload threw.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  u64 seed{1};
  double seconds{10};
  int trace{0};
  bool quick{false};
  std::string work_dir{"."};
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "thsr_perfbench: " << why
            << "\nusage: thsr_perfbench --workload viewshed|serve|stream --seed N --seconds S "
               "--trace 0|1 [--quick] [--work-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--quick") {
      a.quick = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + k).c_str());
  }
  if (a.workload != "viewshed" && a.workload != "serve" && a.workload != "stream") {
    usage("--workload must be viewshed, serve or stream");
  }
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

/// Shortest round-trip text of a double (all its digits, nothing more).
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_line(bool correct, u64 attempted, u64 failed, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
       ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    s += (first ? "\"" : ", \"") + name + "\": {\"value\": " + num(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return s + "}}";
}

Outcome run(const std::string& workload, const Plan& plan) {
  if (workload == "viewshed") return run_viewshed(plan);
  if (workload == "serve") return run_serve(plan);
  return run_stream(plan);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  Plan plan;
  plan.seed = a.seed;
  plan.seconds = a.seconds;
  plan.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  plan.quick = a.quick;
  plan.traced = a.trace == 1;
  plan.work_dir = a.work_dir;
  try {
    if (!plan.traced) {
      // Several set-ups per run: setup_s is their median.
      plan.setup_reps = 3;
      const Outcome o = run(a.workload, plan);
      for (const std::string& line : o.report) std::cout << line << "\n";
      std::cout << report_line("setup_s", o.e2e.at("setup_s").value, "s", "(median of 3 set-ups)")
                << "\n";
      std::cout << json_line(o.failed == 0, o.attempted, o.failed, o.e2e) << std::endl;
      return 0;
    }
    // Traced: the named workload for the full time, the others briefly, so
    // every per-layer metric is measured on the workload that owns it.
    Metrics layer;
    u64 attempted = 0, failed = 0;
    for (const std::string w : {"viewshed", "serve", "stream"}) {
      Plan p = plan;
      if (w != a.workload) p.seconds = std::min(plan.seconds, a.quick ? 0.3 : 2.0);
      const Outcome o = run(w, p);
      attempted += o.attempted;
      failed += o.failed;
      for (const std::string& line : o.report) std::cout << line << "\n";
      for (const auto& [name, m] : o.layer) {
        const bool trace_meta = name.rfind("trace.", 0) == 0;
        if (trace_meta) {
          std::cout << report_line(w + "." + name, m.value, m.unit) << "\n";
          if (w != a.workload) continue;
        }
        layer[name] = m;
      }
    }
    const std::string stem =
        a.work_dir + "/trace-" + a.workload + "-" + std::to_string(a.seed);
    if (!Tracer::write_chrome_json(stem + ".json") || !Tracer::write_summary(stem + ".txt")) {
      std::cerr << "thsr_perfbench: cannot write " << stem << ".{json,txt}\n";
    }
    std::cout << "per-layer metrics (" << layer.size() << "):\n";
    for (const auto& [name, m] : layer) std::cout << report_line(name, m.value, m.unit) << "\n";
    std::cout << "spans: " << stem << ".json (Chrome trace events), " << stem << ".txt\n";
    std::cout << json_line(failed == 0, attempted, failed, layer) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "thsr_perfbench: " << e.what() << "\n";
    return 1;
  }
}

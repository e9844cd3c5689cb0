// perfbench_fleet: one benchmark run of one workload.
//
//   perfbench_fleet --workload fleet_steady|fleet_churn|durable_ctl
//                   --seed N --seconds S --trace 0|1
//                   [--work-dir DIR] [--results FILE]
//
// Prints the gate/reconciliation report, a `host:` line with the host and
// build facts, and as the LAST line one JSON object:
//   {"correct": .., "attempted": .., "failed": ..,
//    "metrics": {name: {"value": .., "unit": ..}}}
// End-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exit 0 when every correctness gate passed, 1 when one failed (metrics
// are then withheld), 2 on a usage error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef HP4_SANITIZER
#define HP4_SANITIZER "none"
#endif

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_fleet: %s\nusage: perfbench_fleet --workload "
               "fleet_steady|fleet_churn|durable_ctl --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--results FILE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string results_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        const auto w = perfbench::workload_by_name(v);
        if (!w) return usage(("unknown workload " + v).c_str());
        cfg.workload = *w;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else if (a == "--results") {
        results_path = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (cfg.seconds <= 0) return usage("--seconds must be positive");

  const perfbench::RunResult r = perfbench::run_workload(cfg);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitizer = HP4_SANITIZER;
  const bool comparable =
      sanitizer == "none" &&
      (build_type == "Release" || build_type == "RelWithDebInfo");
  std::ostringstream host;
  host << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": \"" << build_type << "\", \"sanitizer\": \""
       << sanitizer << "\", \"compiler\": \"" << json_escape(__VERSION__)
       << "\", \"comparable\": " << (comparable ? "true" : "false")
       << ", \"seed\": " << cfg.seed << ", \"seconds\": " << num(cfg.seconds)
       << ", \"trace\": " << (cfg.trace ? 1 : 0);
  for (const auto& [k, v] : r.facts)
    host << ", \"" << k << "\": \"" << json_escape(v) << "\"";
  host << "}";

  std::ostringstream metrics;
  metrics << "{";
  if (r.correct) {
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      metrics << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
  }
  metrics << "}";

  for (const auto& line : r.report) std::printf("%s\n", line.c_str());
  for (const auto& g : r.gate_failures)
    std::printf("GATE FAILED: %s\n", g.c_str());
  if (!comparable)
    std::printf("NOTE: %s build, sanitizer %s: numbers are not comparable\n",
                build_type.c_str(), sanitizer.c_str());
  if (!r.trace_file.empty()) std::printf("spans: %s\n", r.trace_file.c_str());
  for (const auto& m : r.metrics)
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("host: %s\n", host.str().c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (r.correct ? "true" : "false")
         << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
         << ", \"metrics\": " << metrics.str() << "}";
  if (!results_path.empty()) {
    std::ofstream os(results_path);
    os << "{\"host\": " << host.str() << ", \"result\": " << result.str()
       << "}\n";
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

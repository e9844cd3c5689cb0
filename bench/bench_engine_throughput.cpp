// Engine throughput bench: single-thread vs N flow-sharded workers on the
// L2-switch workload, written to BENCH_engine.json.
//
// Two throughput figures are reported per worker count:
//
//   wall_pps   packets / wall-clock seconds for the whole run (best of
//              --reps repetitions). With the sharded SPSC-ring data path
//              this is the headline figure: on a machine with >= 4 cores
//              the 4-worker wall_pps must reach 2x the 1-worker wall_pps
//              (the wall-clock scaling gate). On a smaller container the
//              gate deactivates with a printed notice — wall-clock cannot
//              scale past the core count — and model_pps carries the
//              scaling assertion alone.
//
//   model_pps  packets / max per-worker busy time, where busy time is the
//              per-thread CPU time each worker spent inside
//              Switch::inject(). This is the bottleneck-makespan measure —
//              the same methodology sim::run_iperf uses (goodput /
//              bottleneck switch busy time) for the paper's §6.4 bandwidth
//              numbers — and is what wall-clock converges to given one
//              core per worker.
//
// Every run also emits serial-fraction evidence into BENCH_engine.json:
// per-worker busy seconds, producer/consumer ring waits, merge-stall and
// drain-wait nanoseconds, and arena fresh-alloc counts — the numbers that say *where* a scaling shortfall comes from.
//
// The bench asserts the workers=1 engine path is byte-identical to direct
// bm::Switch::inject() on the same workload before timing anything.
//
// Usage: bench_engine_throughput [--workers 1,2,4,8] [--reps 3]
//                                [--profile-json <path>]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "check/trace_diff.h"
#include "engine/engine.h"
#include "net/headers.h"

namespace hyper4::bench {
namespace {

using engine::EngineOptions;
using engine::InjectItem;
using engine::TrafficEngine;

std::vector<InjectItem> l2_workload(std::size_t flows, std::size_t per_flow) {
  std::vector<InjectItem> items;
  items.reserve(flows * per_flow);
  for (std::size_t k = 0; k < per_flow; ++k) {
    for (std::size_t f = 0; f < flows; ++f) {
      net::EthHeader eth;
      eth.src = net::mac_from_string(kMacH1);
      eth.dst = net::mac_from_string(f % 2 ? kMacH1 : kMacH2);
      net::Ipv4Header ip;
      ip.src = net::ipv4_from_string("10.1.0.1") + static_cast<uint32_t>(f);
      ip.dst = net::ipv4_from_string("10.2.0.1") + static_cast<uint32_t>(f);
      ip.protocol = net::kIpProtoTcp;
      net::TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(10000 + f);
      tcp.dst_port = 5001;
      tcp.seq = static_cast<std::uint32_t>(k);
      items.push_back({static_cast<std::uint16_t>(f % 2 ? 2 : 1),
                       net::make_ipv4_tcp(eth, ip, tcp, 64)});
    }
  }
  return items;
}

struct Run {
  std::size_t workers = 0;
  std::size_t packets = 0;
  double wall_s = 0;
  double bottleneck_busy_s = 0;
  double wall_pps = 0;
  double model_pps = 0;
  std::vector<double> busy_s;  // per worker, from the best repetition
  // Serial-fraction evidence (cumulative over the best repetition).
  std::uint64_t backpressure_waits = 0;
  std::uint64_t consumer_waits = 0;
  std::uint64_t merge_stall_ns = 0;
  std::uint64_t drain_wait_ns = 0;
  std::uint64_t arena_fresh_allocs = 0;
};

Run run_engine_once(const bm::Switch& configured, std::size_t workers,
                    const std::vector<InjectItem>& items, bool profile,
                    const std::string& profile_json) {
  EngineOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 4096;
  opts.batch_size = 64;
  opts.collect_results = false;  // pure throughput: no result accumulation
  opts.profile = profile;
  opts.pin_workers = true;  // one core per worker when the machine has them
  TrafficEngine eng(apps::program_by_name("l2_sw"), opts);
  eng.sync_from(configured);

  // Warm-up wave: grow arena buffers and fault in the replicas, so the
  // timed wave measures the steady state the allocation gate defends.
  eng.inject_batch(items);
  (void)eng.drain();
  eng.reset_busy();

  const auto t0 = std::chrono::steady_clock::now();
  eng.inject_batch(items);
  const engine::MergedResult m = eng.drain();
  const auto t1 = std::chrono::steady_clock::now();

  Run r;
  r.workers = workers;
  r.packets = m.packets;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.bottleneck_busy_s = eng.max_busy_seconds();
  r.wall_pps = r.wall_s > 0 ? static_cast<double>(r.packets) / r.wall_s : 0;
  r.model_pps = r.bottleneck_busy_s > 0
                    ? static_cast<double>(r.packets) / r.bottleneck_busy_s
                    : 0;
  for (std::size_t i = 0; i < workers; ++i)
    r.busy_s.push_back(eng.busy_seconds(i));
  auto& mx = eng.metrics();
  r.backpressure_waits = mx.counter("backpressure_waits").value();
  r.consumer_waits = mx.counter("consumer_waits").value();
  r.merge_stall_ns = mx.counter("merge_stall_ns").value();
  r.drain_wait_ns = mx.counter("drain_wait_ns").value();
  r.arena_fresh_allocs = mx.counter("arena_fresh_allocs").value();

  if (profile && !profile_json.empty()) {
    eng.export_profile();
    std::ofstream out(profile_json);
    out << eng.metrics().to_json() << "\n";
    std::printf("wrote %s\n", profile_json.c_str());
  }
  return r;
}

// Best-of-`reps` by wall time (each repetition is a fresh engine).
Run run_engine(const bm::Switch& configured, std::size_t workers,
               const std::vector<InjectItem>& items, int reps,
               bool profile = false, const std::string& profile_json = "") {
  Run best;
  for (int i = 0; i < reps; ++i) {
    // Only the last repetition writes the profile artifact (any would do;
    // the last keeps the code simple and the file consistent with `best`
    // often enough).
    const bool write_json = profile && i == reps - 1;
    Run r = run_engine_once(configured, workers, items, profile,
                            write_json ? profile_json : "");
    if (best.workers == 0 || r.wall_s < best.wall_s) best = std::move(r);
  }
  return best;
}

// Full structural trace comparison (ports, final packet bytes, applied
// tables, drop/resubmit counters, digests) via the check library's differ;
// on mismatch the first divergence is printed and the bench fails.
bool check_equivalence(const bm::Switch& configured,
                       const std::vector<InjectItem>& items) {
  bm::Switch ref(apps::program_by_name("l2_sw"));
  ref.sync_state_from(configured);

  EngineOptions opts;
  opts.workers = 1;
  TrafficEngine eng(apps::program_by_name("l2_sw"), opts);
  eng.sync_from(configured);
  eng.inject_batch(items);
  const engine::MergedResult m = eng.drain();
  if (m.per_packet.size() != items.size()) {
    std::printf("EQUIVALENCE FAILURE: %zu packets injected, %zu drained\n",
                items.size(), m.per_packet.size());
    return false;
  }
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bm::ProcessResult direct = ref.inject(items[i].port, items[i].packet);
    if (auto d = check::diff_results(direct, m.per_packet[i], i)) {
      d->lhs = "direct";
      d->rhs = "engine";
      std::printf("EQUIVALENCE FAILURE: %s\n", d->str().c_str());
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> parse_workers(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void emit_run_json(std::ofstream& json, const Run& r, double base_model,
                   double base_wall, bool last) {
  json << "    {\"workers\": " << r.workers << ", \"packets\": " << r.packets
       << ", \"wall_s\": " << r.wall_s
       << ", \"bottleneck_busy_s\": " << r.bottleneck_busy_s
       << ", \"wall_pps\": " << r.wall_pps << ", \"model_pps\": " << r.model_pps
       << ", \"speedup_model_vs_1\": "
       << (base_model > 0 ? r.model_pps / base_model : 0)
       << ", \"speedup_wall_vs_1\": "
       << (base_wall > 0 ? r.wall_pps / base_wall : 0)
       << ",\n     \"busy_s\": [";
  for (std::size_t i = 0; i < r.busy_s.size(); ++i)
    json << (i ? ", " : "") << r.busy_s[i];
  json << "],\n     \"backpressure_waits\": " << r.backpressure_waits
       << ", \"consumer_waits\": " << r.consumer_waits
       << ",\n     \"merge_stall_ns\": " << r.merge_stall_ns
       << ", \"drain_wait_ns\": " << r.drain_wait_ns
       << ", \"arena_fresh_allocs\": " << r.arena_fresh_allocs << "}"
       << (last ? "" : ",") << "\n";
}

int main_impl(int argc, char** argv) {
  std::vector<std::size_t> worker_counts = {1, 2, 4, 8};
  int reps = 3;
  std::string profile_json;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workers" && i + 1 < argc) {
      worker_counts = parse_workers(argv[++i]);
    } else if (a == "--reps" && i + 1 < argc) {
      reps = std::max(1, static_cast<int>(std::strtol(argv[++i], nullptr, 10)));
    } else if (a == "--profile-json" && i + 1 < argc) {
      profile_json = argv[++i];
    } else {
      std::printf(
          "usage: %s [--workers 1,2,4,8] [--reps N] [--profile-json path]\n",
          argv[0]);
      return 2;
    }
  }
  if (worker_counts.empty()) worker_counts = {1, 2, 4, 8};

  // The L2-switch workload: demo rules, 256 flows x 64 packets.
  bm::Switch configured(apps::program_by_name("l2_sw"));
  for (const auto& r : demo_rules("l2_sw")) apps::apply_rule(configured, r);
  const auto items = l2_workload(256, 64);
  const unsigned nproc = std::thread::hardware_concurrency();

  std::printf(
      "engine throughput — l2_switch, %zu packets, %u flows, nproc=%u, "
      "reps=%d\n\n",
      items.size(), 256u, nproc, reps);

  const bool equiv = check_equivalence(configured, items);
  std::printf("workers=1 vs direct inject: %s\n\n",
              equiv ? "byte-identical" : "DIVERGED");

  std::vector<Run> runs;
  for (std::size_t workers : worker_counts)
    runs.push_back(run_engine(configured, workers, items, reps));

  const Run* one = nullptr;
  const Run* four = nullptr;
  for (const auto& r : runs) {
    if (r.workers == 1) one = &r;
    if (r.workers == 4) four = &r;
  }
  const double base_model = one ? one->model_pps : 0;
  const double base_wall = one ? one->wall_pps : 0;

  std::printf("%8s %10s %12s %12s %10s %10s\n", "workers", "packets",
              "wall_pps", "model_pps", "x(wall)", "x(model)");
  for (const auto& r : runs) {
    std::printf("%8zu %10zu %12.0f %12.0f %10.2f %10.2f\n", r.workers,
                r.packets, r.wall_pps, r.model_pps,
                base_wall > 0 ? r.wall_pps / base_wall : 0,
                base_model > 0 ? r.model_pps / base_model : 0);
  }
  std::printf(
      "\nmodel_pps = packets / bottleneck-worker busy time (the iperf\n"
      "methodology from sim::run_iperf); wall_pps is bounded by the\n"
      "machine's core count.\n");

  // Tracing overhead: the same single-worker run with per-stage profiling
  // enabled (per-worker obs::PipelineTracer, two clock reads per stage per
  // packet, no event ring). The plain runs above use no tracer at all —
  // the hot path pays one null check per hook — so `runs` doubles as the
  // tracing-disabled baseline.
  const Run profiled =
      run_engine(configured, 1, items, reps, /*profile=*/true, profile_json);
  const double overhead_ratio =
      base_model > 0 ? profiled.model_pps / base_model : 0;
  std::printf(
      "\ntracing overhead (workers=1): plain %.0f pps, profiled %.0f pps "
      "(%.2fx)\n",
      base_model, profiled.model_pps, overhead_ratio);

  // --- gates ---------------------------------------------------------------
  // Wall-clock scaling: the tentpole claim. Active only when the machine
  // has cores for 4 workers AND both 1- and 4-worker runs happened.
  const double wall_scaling_min = 2.0;
  const bool wall_scaling_active = nproc >= 4 && one && four;
  const double wall_scaling =
      (four && base_wall > 0) ? four->wall_pps / base_wall : 0;
  bool wall_scaling_ok = true;
  if (wall_scaling_active) {
    wall_scaling_ok = wall_scaling >= wall_scaling_min;
    std::printf("\nwall scaling gate: wall_pps[4w] = %.2fx wall_pps[1w] "
                "(need >= %.1fx): %s\n",
                wall_scaling, wall_scaling_min,
                wall_scaling_ok ? "ok" : "FAIL");
  } else {
    std::printf(
        "\nwall scaling gate SKIPPED: nproc=%u < 4 or missing 1/4-worker "
        "runs — wall-clock cannot scale past the core count; model_pps "
        "carries the scaling assertion.\n",
        nproc);
  }

  // wall_pps non-regression floors, relative to the 1-worker model figure:
  // wall-clock includes queue handoff and thread scheduling, so it is never
  // the full model_pps, but a collapse below these ratios means the engine
  // is burning its budget outside Switch::inject (queue contention, merge
  // overhead). The 4-worker floor is laxer because on a small container the
  // workers time-slice a shared core.
  const double wall1_floor = 0.5, wall4_floor = 0.25;
  const bool wall1_ok =
      !one || base_model <= 0 || one->wall_pps >= wall1_floor * base_model;
  const bool wall4_ok =
      !four || base_model <= 0 || four->wall_pps >= wall4_floor * base_model;

  std::ofstream json("BENCH_engine.json");
  json << "{\n  \"host\": " << host_block_json(/*pin_workers=*/true)
       << ",\n  \"workload\": \"l2_switch\",\n  \"packets\": " << items.size()
       << ",\n  \"flows\": 256,\n  \"nproc\": " << nproc
       << ",\n  \"reps\": " << reps
       << ",\n  \"workers1_equivalent_to_direct_inject\": "
       << (equiv ? "true" : "false") << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i)
    emit_run_json(json, runs[i], base_model, base_wall, i + 1 == runs.size());
  json << "  ],\n  \"profiled_workers1_model_pps\": " << profiled.model_pps
       << ",\n  \"profiled_over_plain_model\": " << overhead_ratio
       << ",\n  \"wall_scaling\": {\"active\": "
       << (wall_scaling_active ? "true" : "false")
       << ", \"min\": " << wall_scaling_min
       << ", \"wall4_over_wall1\": " << wall_scaling
       << ", \"ok\": " << (wall_scaling_ok ? "true" : "false")
       << "},\n  \"floors\": {\"wall1_over_model1_min\": " << wall1_floor
       << ", \"wall4_over_model1_min\": " << wall4_floor
       << ", \"wall1_over_model1\": "
       << (one && base_model > 0 ? one->wall_pps / base_model : 0)
       << ", \"wall4_over_model1\": "
       << (four && base_model > 0 ? four->wall_pps / base_model : 0)
       << ", \"wall1_ok\": " << (wall1_ok ? "true" : "false")
       << ", \"wall4_ok\": " << (wall4_ok ? "true" : "false") << "}\n}\n";
  std::printf("\nwrote BENCH_engine.json\n");

  if (!equiv) {
    std::printf("FAIL: workers=1 diverged from direct inject\n");
    return 1;
  }
  if (one && four && base_model > 0 && four->model_pps / base_model < 2.0) {
    std::printf("FAIL: model speedup at 4 workers < 2x\n");
    return 1;
  }
  if (!wall_scaling_ok) {
    std::printf("FAIL: wall_pps[4w] < %.1fx wall_pps[1w] with %u cores\n",
                wall_scaling_min, nproc);
    return 1;
  }
  if (!wall1_ok) {
    std::printf("FAIL: wall_pps[1w] < %.2fx of model_pps[1w]\n", wall1_floor);
    return 1;
  }
  if (!wall4_ok) {
    std::printf("FAIL: wall_pps[4w] < %.2fx of model_pps[1w]\n", wall4_floor);
    return 1;
  }
  // Profiling reads the clock twice per stage; even so it must keep at
  // least a quarter of the untraced throughput, else the observability
  // layer has grown a real hot-path cost.
  if (base_model > 0 && overhead_ratio < 0.25) {
    std::printf("FAIL: profiled throughput < 0.25x of untraced\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hyper4::bench

int main(int argc, char** argv) {
  return hyper4::bench::main_impl(argc, argv);
}

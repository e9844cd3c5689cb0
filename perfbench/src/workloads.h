// The fleet benchmark's workloads, driven through the stack's public API:
// scenarios::ScenarioFleet over engine::TrafficEngine (VM packet path on),
// the hp4 controller/DPMU, and — on durable_ctl — the state durable store.
//
// One run = set-up (repeated, median reported) → rounds of saturating waves
// and control transactions → correctness gates → the rest of the set-up
// repetitions. A traced run
// (RunConfig::trace) repeats the same rounds with spans around every call
// into a layer, adds a block of paced single packets per round, then probes
// each layer directly and reconciles the per-layer costs against the
// end-to-end ones (NOTES.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "scenarios/fleet.h"

namespace perfbench {

enum class Workload { kFleetSteady, kFleetChurn, kDurableCtl };

std::optional<Workload> workload_by_name(const std::string& name);
std::string workload_name(Workload w);

struct RunConfig {
  Workload workload = Workload::kFleetSteady;
  std::uint64_t seed = 1;
  // Scales the timed phase: one round per second. Rounds of op-free waves
  // are timed; waves carrying control ops are counted (10 per second, at
  // least 200 per run) so every run does the same control work.
  double seconds = 10;
  bool trace = false;
  // Scratch root for durable stores and the trace file; must exist.
  std::string work_dir = ".";
  // Called before every saturating wave with the wave index (the gate
  // self-test uses it to break one tenant's flow).
  std::function<void(hyper4::scenarios::ScenarioFleet&, std::size_t)>
      before_wave;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  // True only when every correctness gate passed.
  bool correct = false;
  std::vector<std::string> gate_failures;
  // Packets injected plus control transactions issued, and how many of
  // them failed (undelivered packets, transactions that threw).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // End-to-end metrics for an untraced run, per-layer ones for a traced run.
  std::vector<Metric> metrics;
  // Human-readable lines (gates, VM diagnostics, reconciliation).
  std::vector<std::string> report;
  // Run facts recorded with the result (tenants, workers, samples, ...).
  std::vector<std::pair<std::string, std::string>> facts;
  std::string trace_file;  // written by traced runs
};

RunResult run_workload(const RunConfig& cfg);

}  // namespace perfbench

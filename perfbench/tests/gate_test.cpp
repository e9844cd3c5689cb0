// Gate self-test: the benchmark must refuse a run whose traffic is broken.
//
// Before the first saturating wave, one tenant's forwarding flow rule is
// deleted through the controller's public API. The run must then fail its
// delivery gate, count the lost packets as failed, and withhold metrics.
// A clean run of the same workload must pass. Exit 0 when both hold.
//
//   perfbench_gate_test [WORK_DIR]
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Delete the canonical-flow forwarding rule of tenant 0's last NF. A fresh
// vdev numbers its rules from 1 in install order, which is the snapshot's
// order.
void drop_flow_rule(hyper4::scenarios::ScenarioFleet& fleet) {
  const auto snap = fleet.snapshot_tenant(0);
  const std::size_t pos = snap.rules.size() - 1;
  for (std::size_t k = 0; k < snap.rules[pos].size(); ++k) {
    const auto& r = snap.rules[pos][k];
    if (r.flow && r.rule.table.find("fwd") != std::string::npos) {
      fleet.controller().delete_rule(fleet.tenant(0).vdevs[pos], k + 1);
      return;
    }
  }
  throw std::runtime_error("no forwarding flow rule on tenant 0");
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path tmp =
      std::filesystem::temp_directory_path() / "perfbench_gate_test";
  const std::string dir = argc > 1 ? argv[1] : tmp.string();
  std::filesystem::create_directories(dir);

  perfbench::RunConfig cfg;
  cfg.workload = perfbench::Workload::kFleetSteady;
  cfg.seed = 7;
  cfg.seconds = 0.5;
  cfg.work_dir = dir;

  const perfbench::RunResult clean = perfbench::run_workload(cfg);
  expect(clean.correct && clean.failed == 0 && !clean.metrics.empty(),
         "clean run passes every gate and publishes metrics");

  cfg.before_wave = [](hyper4::scenarios::ScenarioFleet& fleet,
                       std::size_t wave) {
    if (wave == 0) drop_flow_rule(fleet);
  };
  const perfbench::RunResult broken = perfbench::run_workload(cfg);
  bool delivery_gate = false;
  for (const auto& g : broken.gate_failures)
    delivery_gate = delivery_gate || g.rfind("delivery: tenant 0 ", 0) == 0;
  expect(!broken.correct, "run with a deleted flow rule is not correct");
  expect(delivery_gate, "the delivery gate names tenant 0");
  expect(broken.failed > 0, "lost packets are counted as failed");
  expect(broken.metrics.empty(), "metrics are withheld");

  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

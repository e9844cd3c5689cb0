// Golden-keys contract for the engine's observability surface (the shape
// the C ABI exports as JSON and dashboards scrape): every counter and
// histogram MetricsRegistry::snapshot() must carry, the to_json()
// structure, and the packet_path_diagnostics() keys of the VM tier.
// Renaming or dropping a key is an observability break — update the
// goldens here AND DESIGN.md deliberately.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "apps/apps.h"
#include "bench/common.h"
#include "engine/engine.h"
#include "engine/metrics.h"
#include "vm/vm.h"

namespace hyper4 {
namespace {

using bench::Harness;

const std::set<std::string> kCounterGolden = {
    "packets",          "outputs",
    "drops",            "resubmits",
    "recirculates",     "parse_errors",
    "loop_kills",       "batches",
    "backpressure_waits", "consumer_waits",
    "merge_stall_ns",   "drain_wait_ns",
    "arena_fresh_allocs", "control_ops",
    "txn_batches",
};

const std::set<std::string> kHistogramGolden = {
    "packet_latency_us",
    "stages_per_packet",
};

engine::MergedResult run_traffic(engine::TrafficEngine& eng, int packets) {
  const net::Packet probe = bench::worst_case_packet("l2_sw");
  for (int i = 0; i < packets; ++i) eng.inject(1, probe);
  return eng.drain();
}

TEST(EngineMetricsShape, SnapshotCarriesExactlyTheGoldenCounters) {
  Harness h("l2_sw");
  engine::EngineOptions opts;
  opts.workers = 2;
  engine::TrafficEngine eng(h.ctl->generator().generate(), opts);
  (void)run_traffic(eng, 8);

  const engine::MetricsSnapshot snap = eng.metrics().snapshot();
  std::set<std::string> counters;
  for (const auto& [name, v] : snap.counters) counters.insert(name);
  EXPECT_EQ(kCounterGolden, counters);
  std::set<std::string> histograms;
  for (const auto& [name, h2] : snap.histograms) histograms.insert(name);
  EXPECT_EQ(kHistogramGolden, histograms);

  // Traffic actually moved the load-bearing counters.
  EXPECT_EQ(8u, snap.counters.at("packets"));
  EXPECT_GE(snap.counters.at("batches"), 1u);
}

TEST(EngineMetricsShape, ToJsonHasTheDocumentedStructure) {
  Harness h("l2_sw");
  engine::EngineOptions opts;
  opts.workers = 1;
  opts.profile = true;  // populate the histograms too
  engine::TrafficEngine eng(h.ctl->generator().generate(), opts);
  (void)run_traffic(eng, 4);

  const std::string json = eng.metrics().to_json();
  EXPECT_EQ(0u, json.find("{\"counters\":{"));
  EXPECT_NE(std::string::npos, json.find("},\"histograms\":{"));
  for (const std::string& name : kCounterGolden)
    EXPECT_NE(std::string::npos, json.find("\"" + name + "\":"))
        << "counter " << name << " missing from to_json()";
  for (const std::string& name : kHistogramGolden) {
    const auto at = json.find("\"" + name + "\":{\"buckets\":[{\"le\":");
    EXPECT_NE(std::string::npos, at)
        << "histogram " << name << " missing or misshapen in to_json()";
  }
  EXPECT_NE(std::string::npos, json.find("\"count\":"));
  EXPECT_NE(std::string::npos, json.find("\"sum\":"));
  EXPECT_NE(std::string::npos, json.find("\"mean\":"));
}

TEST(EngineMetricsShape, PacketPathDiagnosticsEmptyWithoutVmTier) {
  Harness h("l2_sw");
  engine::EngineOptions opts;
  opts.workers = 2;
  engine::TrafficEngine eng(h.ctl->generator().generate(), opts);
  (void)run_traffic(eng, 4);
  EXPECT_TRUE(eng.packet_path_diagnostics().empty());
}

TEST(EngineMetricsShape, PacketPathDiagnosticsGoldenKeysWithVmTier) {
  Harness h("l2_sw");
  engine::EngineOptions opts;
  opts.workers = 2;
  engine::TrafficEngine eng(h.ctl->generator().generate(), opts);
  h.ctl->attach_engine(&eng);
  eng.set_packet_path(vm::engine_fast_path(h.ctl->generator().config()));
  const engine::MergedResult m = run_traffic(eng, 8);
  EXPECT_EQ(8u, m.per_packet.size());

  const std::map<std::string, std::uint64_t> diag =
      eng.packet_path_diagnostics();
  for (const char* key :
       {"packets_bytecode", "packets_fallback", "compiles", "recompiles"})
    EXPECT_TRUE(diag.count(key)) << "diagnostic key " << key << " missing";
  // Every packet went through a tier, and the bytecode tier compiled at
  // least once; any fallback names its reason as "fallback.<reason>".
  EXPECT_EQ(8u, diag.at("packets_bytecode") + diag.at("packets_fallback"));
  EXPECT_GE(diag.at("compiles"), 1u);
  std::uint64_t fallback_by_reason = 0;
  for (const auto& [key, v] : diag)
    if (key.rfind("fallback.", 0) == 0) fallback_by_reason += v;
  EXPECT_EQ(diag.at("packets_fallback"), fallback_by_reason);
  h.ctl->attach_engine(nullptr);
}

}  // namespace
}  // namespace hyper4

// Concurrency stress for the traffic engine: many flows injected from
// multiple producer threads while a control thread fires table_modify
// fan-outs into the same replicas. Designed to be ThreadSanitizer-clean —
// every cross-thread touch goes through the engine's queues, replica locks
// or atomics — while still passing (with a single-worker variant) under
// plain ctest.
//
// Scale knobs (environment):
//   ENGINE_STRESS_PACKETS  total packets per test (default 2000)
//   ENGINE_STRESS_WORKERS  worker count for the concurrent test (default 4)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "bench/common.h"
#include "engine/engine.h"
#include "net/headers.h"
#include "util/rng.h"

namespace hyper4 {
namespace {

using engine::EngineOptions;
using engine::InjectItem;
using engine::TrafficEngine;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

net::Packet flow_packet(std::size_t flow, std::uint32_t seq) {
  net::EthHeader eth;
  eth.src = net::mac_from_string(bench::kMacH1);
  eth.dst = net::mac_from_string(bench::kMacH2);
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string("10.1.0.0") + static_cast<std::uint32_t>(flow);
  ip.dst = net::ipv4_from_string("10.2.0.0") + static_cast<std::uint32_t>(flow);
  ip.protocol = net::kIpProtoTcp;
  net::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(20000 + flow % 1000);
  tcp.dst_port = 443;
  tcp.seq = seq;
  return net::make_ipv4_tcp(eth, ip, tcp, 16);
}

// Shared body: inject `packets` spread over `flows` flows from
// `producers` threads while the main thread alternates the dmac entry's
// egress port between 2 and 3. Every delivered packet must leave on one of
// those two ports, and nothing may be lost or double-counted.
void run_stress(std::size_t workers, std::size_t producers,
                std::size_t packets) {
  const std::size_t flows = 64;
  // HP4_CHECK_SEED re-randomizes the packet→flow assignment (shared seed
  // discipline with the fuzz and check suites). Precomputed so producer
  // threads never share the Rng.
  const std::uint64_t seed = util::env_seed(0x57E55);
  util::Rng rng(seed);
  std::vector<std::size_t> flow_of(packets);
  for (auto& f : flow_of)
    f = static_cast<std::size_t>(rng.uniform(0, flows - 1));
  bm::Switch native(apps::l2_switch());
  apps::apply_rule(native, apps::l2_forward(bench::kMacH1, 1));
  const std::uint64_t h2 =
      apps::apply_rule(native, apps::l2_forward(bench::kMacH2, 2));

  EngineOptions opts;
  opts.workers = workers;
  opts.queue_capacity = 128;  // small queue → exercises backpressure
  opts.batch_size = 16;
  TrafficEngine eng(apps::l2_switch(), opts);
  eng.sync_from(native);

  std::atomic<bool> done{false};
  std::thread control([&] {
    std::uint16_t port = 3;
    while (!done.load(std::memory_order_acquire)) {
      eng.table_modify("dmac", "forward", h2, {util::BitVec(9, port)});
      port = port == 2 ? 3 : 2;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> prod;
  const std::size_t per_producer = packets / producers;
  for (std::size_t t = 0; t < producers; ++t) {
    prod.emplace_back([&, t] {
      for (std::size_t i = 0; i < per_producer; ++i) {
        const std::size_t flow = flow_of[t * per_producer + i];
        eng.inject(1, flow_packet(flow, static_cast<std::uint32_t>(i)));
      }
    });
  }
  for (auto& th : prod) th.join();

  const engine::MergedResult m = eng.drain();
  done.store(true, std::memory_order_release);
  control.join();

  const std::size_t injected = per_producer * producers;
  EXPECT_EQ(m.packets, injected) << "seed=" << seed;
  ASSERT_EQ(m.per_packet.size(), injected) << "seed=" << seed;
  EXPECT_EQ(m.totals.drops, 0u);
  EXPECT_EQ(m.totals.outputs.size(), injected);
  for (const auto& o : m.totals.outputs) {
    EXPECT_TRUE(o.port == 2 || o.port == 3) << "port " << o.port;
  }
  EXPECT_EQ(eng.metrics().counter("packets").value(), injected);
  EXPECT_EQ(eng.stats_total().packets_in, injected);
  // Control thread really ran concurrently.
  EXPECT_GE(eng.epoch(), 2u);
}

TEST(EngineStress, SingleWorkerWithConcurrentControl) {
  run_stress(1, 1, env_size("ENGINE_STRESS_PACKETS", 2000));
}

TEST(EngineStress, ManyWorkersManyProducers) {
  run_stress(env_size("ENGINE_STRESS_WORKERS", 4), 2,
             env_size("ENGINE_STRESS_PACKETS", 2000));
}

// Observability under concurrency: per-worker stage profiling on, with a
// control thread hammering export_profile() (merges worker histograms
// under the replica locks) and MetricsRegistry::snapshot() while
// producers inject. ThreadSanitizer-clean is the point; the content
// assertions at the end are secondary.
TEST(EngineStress, ProfileExportAndSnapshotRaceFree) {
  bm::Switch native(apps::l2_switch());
  apps::apply_rule(native, apps::l2_forward(bench::kMacH1, 1));
  apps::apply_rule(native, apps::l2_forward(bench::kMacH2, 2));

  EngineOptions opts;
  opts.workers = env_size("ENGINE_STRESS_WORKERS", 4);
  opts.batch_size = 16;
  opts.profile = true;
  TrafficEngine eng(apps::l2_switch(), opts);
  eng.sync_from(native);

  std::atomic<bool> done{false};
  std::thread exporter([&] {
    while (!done.load(std::memory_order_acquire)) {
      eng.export_profile();
      const engine::MetricsSnapshot snap = eng.metrics().snapshot();
      (void)snap;
      std::this_thread::yield();
    }
  });

  const std::size_t n = env_size("ENGINE_STRESS_PACKETS", 2000);
  std::vector<std::thread> prod;
  for (std::size_t t = 0; t < 2; ++t) {
    prod.emplace_back([&, t] {
      for (std::size_t i = 0; i < n / 2; ++i)
        eng.inject(1, flow_packet((t * 31 + i) % 64,
                                  static_cast<std::uint32_t>(i)));
    });
  }
  for (auto& th : prod) th.join();
  const engine::MergedResult m = eng.drain();
  done.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(m.packets, (n / 2) * 2);
  // One final export picks up whatever the racing exports left behind;
  // the registry histogram totals must then cover every packet's parse.
  eng.export_profile();
  const engine::MetricsSnapshot snap = eng.metrics().snapshot();
  const auto it = snap.histograms.find("stage_ns_parser");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, (n / 2) * 2)
      << "stage histograms must not lose or double-count observations";
}

// Single-flow hot-spot: every packet hashes to ONE shard while the other
// workers idle. The worst case for the sharded design — ordering must hold
// (per-flow FIFO == global injection order here) and nothing may be lost
// even though three of four rings never see a packet.
TEST(EngineStress, SingleFlowHotSpotKeepsOrder) {
  EngineOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 32;  // small: the hot ring backpressures constantly
  opts.batch_size = 8;
  TrafficEngine eng(apps::l2_switch(), opts);
  bm::Switch native(apps::l2_switch());
  apps::apply_rule(native, apps::l2_forward(bench::kMacH2, 2));
  eng.sync_from(native);

  const std::size_t n = env_size("ENGINE_STRESS_PACKETS", 2000);
  std::vector<InjectItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    items.push_back({1, flow_packet(7, static_cast<std::uint32_t>(i))});
  // All packets share one 5-tuple → one shard.
  const std::size_t shard = eng.shard_of(items[0].packet);
  for (const auto& it : items) ASSERT_EQ(eng.shard_of(it.packet), shard);

  eng.inject_batch(items);
  const engine::MergedResult m = eng.drain();
  ASSERT_EQ(m.per_packet.size(), n);
  ASSERT_EQ(m.totals.outputs.size(), n);
  // TCP seq was the injection index: outputs must carry it back in order.
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = m.totals.outputs[i].packet;
    const std::size_t off = 14 + 20;  // eth + ipv4, no options
    const std::uint32_t seq =
        (std::uint32_t(p.at(off + 4)) << 24) |
        (std::uint32_t(p.at(off + 5)) << 16) |
        (std::uint32_t(p.at(off + 6)) << 8) | std::uint32_t(p.at(off + 7));
    ASSERT_EQ(seq, static_cast<std::uint32_t>(i)) << "order broke at " << i;
  }
}

// queue_capacity=0 must clamp to a working (capacity-1) channel rather
// than wedge or crash.
TEST(EngineStress, ZeroCapacityQueueStillFlows) {
  EngineOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 0;
  opts.batch_size = 4;
  TrafficEngine eng(apps::l2_switch(), opts);
  bm::Switch native(apps::l2_switch());
  apps::apply_rule(native, apps::l2_forward(bench::kMacH2, 2));
  eng.sync_from(native);
  const std::size_t n = 200;
  std::vector<InjectItem> items;
  for (std::size_t i = 0; i < n; ++i)
    items.push_back({1, flow_packet(i % 8, static_cast<std::uint32_t>(i))});
  eng.inject_batch(items);
  const engine::MergedResult m = eng.drain();
  EXPECT_EQ(m.packets, n);
  EXPECT_EQ(m.totals.outputs.size(), n);
}

// Mid-run close: destroy the engine while packets are still queued. The
// destructor closes every ring, workers drain what was already enqueued,
// and join must not hang. (No result assertions — the point is clean
// teardown under load, which TSan also watches.)
TEST(EngineStress, DestructorClosesRingsMidRun) {
  EngineOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 16;
  opts.batch_size = 4;
  opts.collect_results = false;
  auto eng = std::make_unique<TrafficEngine>(apps::l2_switch(), opts);
  for (std::size_t i = 0; i < 500; ++i)
    eng->inject(1, flow_packet(i % 16, static_cast<std::uint32_t>(i)));
  eng.reset();  // close + join while the rings are likely non-empty
}

TEST(EngineStress, BackpressureEngages) {
  // Queue of 4 with thousands of packets from one producer: the producer
  // must outrun the consumer at least once, and nothing is dropped.
  bm::Switch native(apps::l2_switch());
  apps::apply_rule(native, apps::l2_forward(bench::kMacH2, 2));

  EngineOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.batch_size = 4;
  opts.collect_results = false;
  TrafficEngine eng(apps::l2_switch(), opts);
  eng.sync_from(native);

  const std::size_t n = env_size("ENGINE_STRESS_PACKETS", 2000);
  for (std::size_t i = 0; i < n; ++i)
    eng.inject(1, flow_packet(i % 8, static_cast<std::uint32_t>(i)));
  const engine::MergedResult m = eng.drain();
  EXPECT_EQ(m.packets, n);
  EXPECT_TRUE(m.per_packet.empty());  // collect_results off
  EXPECT_EQ(m.totals.drops, 0u);
  EXPECT_GE(eng.metrics().counter("backpressure_waits").value(), 1u);
}

}  // namespace
}  // namespace hyper4

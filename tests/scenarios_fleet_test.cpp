// ScenarioFleet (src/scenarios/fleet.h): multi-tenant chains on one
// persona, live traffic through the engine, churn, transactional hot-swap
// and slice snapshot/restore — the virtualization claims of §3 at tenant
// scale.
#include <gtest/gtest.h>

#include "scenarios/fleet.h"
#include "vm/vm.h"

namespace hyper4 {
namespace {

using scenarios::FleetOptions;
using scenarios::ScenarioFleet;
using scenarios::WaveResult;

FleetOptions small_opts(std::size_t tenants = 6, std::size_t depth = 3) {
  FleetOptions o;
  o.tenants = tenants;
  o.chain_depth = depth;
  o.engine_workers = 2;
  return o;
}

TEST(ScenarioFleet, SetupLoadsChainsAndDeliversEveryTenant) {
  ScenarioFleet fleet(small_opts());
  EXPECT_EQ(fleet.tenants(), 6u);
  // 6 tenants x depth 3 vdevs on one persona.
  EXPECT_EQ(fleet.controller().dpmu().vdev_ids().size(), 18u);

  fleet.inject_wave(4);
  const WaveResult w = fleet.drain_wave();
  EXPECT_EQ(w.injected, 24u);
  EXPECT_EQ(w.drained, 24u);
  EXPECT_TRUE(w.all_delivered);
  for (std::size_t i = 0; i < fleet.tenants(); ++i)
    EXPECT_EQ(w.delivered[i], 4u) << "tenant " << i;
  // Depth-3 chains recirculate twice per packet.
  EXPECT_EQ(w.recirculations, 24u * 2);
  EXPECT_EQ(w.parse_errors, 0u);
}

TEST(ScenarioFleet, ChurnDoesNotDisturbCanonicalFlows) {
  ScenarioFleet fleet(small_opts(4, 2));
  const std::uint64_t epoch0 = fleet.engine().epoch();
  std::size_t issued = 0;
  for (std::size_t i = 0; i < fleet.tenants(); ++i)
    issued += fleet.churn_tenant(i, 20);
  EXPECT_GE(issued, 4u * 20u);
  // Each churn_tenant call is one transaction = one epoch bump.
  EXPECT_EQ(fleet.engine().epoch(), epoch0 + fleet.tenants());

  fleet.inject_wave(3);
  const WaveResult w = fleet.drain_wave();
  EXPECT_TRUE(w.all_delivered);

  // The window bounds per-position entries: flow rules + churn_window.
  for (std::size_t i = 0; i < fleet.tenants(); ++i)
    for (std::size_t pos = 0; pos < 2; ++pos)
      EXPECT_LE(fleet.installed_rules(i, pos),
                fleet.options().churn_window + 4);
}

TEST(ScenarioFleet, ChurnInterleavedWithTraffic) {
  ScenarioFleet fleet(small_opts(4, 3));
  for (std::size_t round = 0; round < 5; ++round) {
    fleet.inject_wave(4);
    fleet.churn_tenant(round % fleet.tenants(), 10);  // while packets flow
    const WaveResult w = fleet.drain_wave();
    EXPECT_TRUE(w.all_delivered) << "round " << round;
  }
}

TEST(ScenarioFleet, HotSwapKeepsFlowDeliveredAndChangesNf) {
  ScenarioFleet fleet(small_opts(3, 3));
  const auto chain_before = fleet.tenant(1).chain;
  const std::uint64_t epoch0 = fleet.engine().epoch();

  fleet.inject_wave(5);
  const hp4::VdevId nv = fleet.hot_swap(1);  // swap mid-wave
  const WaveResult w = fleet.drain_wave();
  EXPECT_TRUE(w.all_delivered);

  // One transaction, one epoch bump.
  EXPECT_EQ(fleet.engine().epoch(), epoch0 + 1);
  EXPECT_NE(fleet.tenant(1).chain, chain_before);
  EXPECT_TRUE(fleet.controller().dpmu().has_vdev(nv));
  // The swapped-out vdev is gone: still exactly depth vdevs per tenant.
  EXPECT_EQ(fleet.controller().dpmu().vdev_ids().size(), 9u);

  // Swapping repeatedly cycles through the catalog without breaking flows.
  for (int k = 0; k < 6; ++k) fleet.hot_swap(1);
  fleet.inject_wave(2);
  EXPECT_TRUE(fleet.drain_wave().all_delivered);
}

TEST(ScenarioFleet, SnapshotRestoreRoundTripsASlice) {
  ScenarioFleet fleet(small_opts(3, 2));
  const auto snap = fleet.snapshot_tenant(2);
  const auto chain_at_snap = fleet.tenant(2).chain;

  // Mutate the slice heavily: churn plus a hot-swap.
  fleet.churn_tenant(2, 30);
  fleet.hot_swap(2);
  EXPECT_NE(fleet.tenant(2).chain, chain_at_snap);

  fleet.restore_tenant(2, snap);
  EXPECT_EQ(fleet.tenant(2).chain, chain_at_snap);
  for (std::size_t pos = 0; pos < 2; ++pos)
    EXPECT_EQ(fleet.installed_rules(2, pos), snap.rules[pos].size());

  fleet.inject_wave(3);
  EXPECT_TRUE(fleet.drain_wave().all_delivered);
}

TEST(ScenarioFleet, VmPathDeliversWithZeroFallbacks) {
  FleetOptions o = small_opts(4, 3);
  o.vm_path = true;
  ScenarioFleet fleet(o);
  fleet.inject_wave(6);
  const WaveResult w = fleet.drain_wave();
  EXPECT_TRUE(w.all_delivered);

  // Every worker served every packet from bytecode.
  const auto diag = fleet.engine().packet_path_diagnostics();
  EXPECT_EQ(diag.at("packets_bytecode"), 24u);
  EXPECT_EQ(diag.at("packets_fallback"), 0u);
}

TEST(ScenarioFleet, DurableFleetRecoversAfterRestart) {
  const std::string dir =
      testing::TempDir() + "/fleet_recover_" +
      std::to_string(::getpid());
  std::uint64_t digest = 0;
  {
    FleetOptions o = small_opts(3, 2);
    o.durable_dir = dir;
    ScenarioFleet fleet(o);
    fleet.churn_tenant(0, 10);
    fleet.hot_swap(1);
    fleet.inject_wave(2);
    EXPECT_TRUE(fleet.drain_wave().all_delivered);
    digest = fleet.store()->digest();
  }
  // A fresh store over the same directory replays to the same state.
  state::DurableController st(dir);
  EXPECT_TRUE(st.recovery().digest_ok);
  EXPECT_EQ(st.digest(), digest);
}

TEST(ScenarioFleet, RejectsBadGeometry) {
  FleetOptions o;
  o.tenants = 0;
  EXPECT_THROW(ScenarioFleet{o}, util::ConfigError);
  o.tenants = 1;
  o.chain_depth = 5;  // no spare catalog kind left for hot-swap
  EXPECT_THROW(ScenarioFleet{o}, util::ConfigError);
}

// Tenant i egresses on port 2i+2, so 255 tenants fill the 9-bit egress spec
// (port 511 is drop). One more must be refused, not silently lose its flow.
TEST(ScenarioFleet, TenantCountBoundedByEgressSpec) {
  FleetOptions o = small_opts(256, 1);
  try {
    ScenarioFleet fleet(o);
    FAIL() << "256 tenants accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("at most 255 tenants"),
              std::string::npos)
        << e.what();
  }

  o.tenants = 255;
  o.vm_path = true;
  ScenarioFleet fleet(o);
  EXPECT_EQ(fleet.tenant(254).out_port, 510);
  fleet.inject_wave(1);
  const WaveResult w = fleet.drain_wave();
  EXPECT_TRUE(w.all_delivered);
  for (std::size_t i = 0; i < fleet.tenants(); ++i)
    EXPECT_EQ(w.delivered[i], 1u) << "tenant " << i;
}

}  // namespace
}  // namespace hyper4

// Network simulator: topology walking, cost model, traffic generators and
// the Table 5 scenarios (native vs HyPer4 shape checks).
#include "sim/network.h"

#include <gtest/gtest.h>

#include "apps/apps.h"
#include "engine/engine.h"
#include "sim/scenarios.h"
#include "sim/traffic.h"
#include "util/error.h"

namespace hyper4::sim {
namespace {

const char* kMacH1 = "02:00:00:00:00:01";
const char* kMacH2 = "02:00:00:00:00:02";

net::Packet tcp_packet(const char* dmac = kMacH2, std::size_t payload = 64) {
  net::EthHeader eth;
  eth.src = net::mac_from_string(kMacH1);
  eth.dst = net::mac_from_string(dmac);
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string("10.0.0.1");
  ip.dst = net::ipv4_from_string("10.0.1.2");
  net::TcpHeader tcp;
  tcp.dst_port = 5001;
  return net::make_ipv4_tcp(eth, ip, tcp, payload);
}

TEST(CostModel, PricesTraceComponents) {
  CostModel cm;
  bm::ProcessResult r;
  r.applied.resize(4);
  r.resubmits = 1;
  r.recirculations = 2;
  EXPECT_DOUBLE_EQ(cm.work_us(r), cm.fixed_us + 4 * cm.per_match_us +
                                      cm.per_resubmit_us +
                                      2 * cm.per_recirculate_us);
}

TEST(Network, SingleSwitchDelivery) {
  bm::Switch sw(apps::l2_switch());
  apps::apply_rules(sw, {apps::l2_forward(kMacH1, 1), apps::l2_forward(kMacH2, 2)});
  Network net;
  net.add_switch("s1", sw);
  net.add_host("h1", "s1", 1);
  net.add_host("h2", "s1", 2);

  auto deliveries = net.send("h1", tcp_packet());
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].host, "h2");
  EXPECT_EQ(deliveries[0].switch_hops, 1u);
  // 2 matches + fixed + 2 link traversals.
  const auto& cm = net.cost_model();
  EXPECT_DOUBLE_EQ(deliveries[0].latency_us,
                   cm.fixed_us + 2 * cm.per_match_us + 2 * cm.link_us);
  EXPECT_GT(net.busy_us("s1"), 0.0);
}

TEST(Network, SendManyMatchesSendWithAndWithoutEngine) {
  bm::Switch sw(apps::l2_switch());
  apps::apply_rules(
      sw, {apps::l2_forward(kMacH1, 1), apps::l2_forward(kMacH2, 2)});
  Network net;
  net.add_switch("s1", sw);
  net.add_host("h1", "s1", 1);
  net.add_host("h2", "s1", 2);

  std::vector<net::Packet> packets;
  for (std::size_t i = 0; i < 8; ++i)
    packets.push_back(tcp_packet(i % 2 ? kMacH1 : kMacH2));

  // Reference: the plain per-packet path.
  const auto plain = net.send_many("h1", packets);
  const double plain_busy = net.busy_us("s1");
  net.reset_busy();

  // Engine-backed: single-switch topology qualifies for the batch path.
  engine::EngineOptions opts;
  opts.workers = 2;
  engine::TrafficEngine eng(apps::l2_switch(), opts);
  eng.sync_from(sw);
  const auto batched = net.send_many("h1", packets, &eng);

  ASSERT_EQ(plain.size(), packets.size());
  ASSERT_EQ(batched.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    ASSERT_EQ(plain[i].size(), batched[i].size()) << i;
    for (std::size_t j = 0; j < plain[i].size(); ++j) {
      EXPECT_EQ(plain[i][j].host, batched[i][j].host);
      EXPECT_EQ(plain[i][j].packet, batched[i][j].packet);
      EXPECT_DOUBLE_EQ(plain[i][j].latency_us, batched[i][j].latency_us);
    }
  }
  // Cost-model accounting is identical too.
  EXPECT_DOUBLE_EQ(net.busy_us("s1"), plain_busy);
}

TEST(Network, MultiHopAccumulatesLatency) {
  bm::Switch s1(apps::l2_switch()), s2(apps::l2_switch());
  for (auto* sw : {&s1, &s2}) {
    apps::apply_rules(*sw, {apps::l2_forward(kMacH1, 1), apps::l2_forward(kMacH2, 2)});
  }
  Network net;
  net.add_switch("s1", s1);
  net.add_switch("s2", s2);
  net.add_host("h1", "s1", 1);
  net.link("s1", 2, "s2", 1);
  net.add_host("h2", "s2", 2);
  auto d = net.send("h1", tcp_packet());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].switch_hops, 2u);
  const auto& cm = net.cost_model();
  EXPECT_DOUBLE_EQ(d[0].latency_us,
                   2 * (cm.fixed_us + 2 * cm.per_match_us) + 3 * cm.link_us);
}

TEST(Network, DroppedPacketsYieldNoDelivery) {
  bm::Switch sw(apps::l2_switch());
  Network net;
  net.add_switch("s1", sw);
  net.add_host("h1", "s1", 1);
  net.add_host("h2", "s1", 2);
  EXPECT_TRUE(net.send("h1", tcp_packet()).empty());  // no entries → drop
}

TEST(Network, UnwiredPortSwallowsPacket) {
  bm::Switch sw(apps::l2_switch());
  apps::apply_rules(sw, {apps::l2_forward(kMacH2, 5)});  // port 5 not wired
  Network net;
  net.add_switch("s1", sw);
  net.add_host("h1", "s1", 1);
  EXPECT_TRUE(net.send("h1", tcp_packet()).empty());
}

TEST(Network, ValidationErrors) {
  bm::Switch sw(apps::l2_switch());
  Network net;
  net.add_switch("s1", sw);
  EXPECT_THROW(net.add_switch("s1", sw), util::ConfigError);
  EXPECT_THROW(net.add_host("h1", "nope", 1), util::ConfigError);
  EXPECT_THROW(net.link("s1", 1, "nope", 1), util::ConfigError);
  EXPECT_THROW(net.send("ghost", tcp_packet()), util::ConfigError);
  EXPECT_THROW(net.busy_us("nope"), util::ConfigError);
}

TEST(Traffic, IcmpReplySwapsAddressing) {
  net::EthHeader eth;
  eth.src = net::mac_from_string(kMacH1);
  eth.dst = net::mac_from_string(kMacH2);
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string("10.0.0.1");
  ip.dst = net::ipv4_from_string("10.0.1.2");
  net::IcmpHeader icmp;
  icmp.identifier = 3;
  icmp.sequence = 9;
  auto req = net::make_ipv4_icmp_echo(eth, ip, icmp, 56);
  auto reply = make_icmp_reply_from(req);
  auto reth = net::read_eth(reply);
  EXPECT_EQ(net::mac_to_string(reth->dst), kMacH1);
  EXPECT_EQ(net::mac_to_string(reth->src), kMacH2);
  auto rip = net::read_ipv4(reply);
  EXPECT_EQ(rip->dst, net::ipv4_from_string("10.0.0.1"));
  EXPECT_EQ(reply.size(), req.size());
}

TEST(Traffic, MeanStddev) {
  auto s = mean_stddev({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(mean_stddev({}).mean, 0.0);
}

// ---------------------------------------------------------------------------
// Scenario-level behaviour

class ScenarioParam
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ScenarioParam, TrafficFlowsEndToEnd) {
  auto [kind, hyper4] = GetParam();
  auto sc = Scenario::make(kind, hyper4);
  auto iperf = sc->iperf(20);
  EXPECT_EQ(iperf.data_delivered, 20u) << sc->name();
  EXPECT_EQ(iperf.acks_delivered, 20u) << sc->name();
  EXPECT_GT(iperf.mbps, 0.0) << sc->name();
  auto ping = sc->ping_flood(20);
  EXPECT_EQ(ping.replied, 20u) << sc->name();
  EXPECT_GT(ping.avg_rtt_us, 0.0) << sc->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioParam,
    ::testing::Combine(::testing::Values("l2_sw", "firewall", "ex1b", "ex1c"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_hp4" : "_native");
    });

TEST(ScenarioShape, Hyper4IncursThePaperBandwidthPenalty) {
  // Table 5 shape: hp4 bandwidth is a small fraction of native (83–89%
  // penalty in the paper); hp4 latency is several times native.
  for (const char* kind : {"l2_sw", "firewall", "ex1b", "ex1c"}) {
    auto native = Scenario::make(kind, false);
    auto hp4 = Scenario::make(kind, true);
    const double native_mbps = native->iperf(50).mbps;
    const double hp4_mbps = hp4->iperf(50).mbps;
    EXPECT_GT(native_mbps, 2.0 * hp4_mbps) << kind;
    const double native_ms = native->ping_flood(50).total_ms;
    const double hp4_ms = hp4->ping_flood(50).total_ms;
    EXPECT_GT(hp4_ms, 1.5 * native_ms) << kind;
  }
}

TEST(ScenarioShape, PayloadIdenticalThroughEmulation) {
  auto native = Scenario::make("ex1c", false);
  auto hp4 = Scenario::make("ex1c", true);
  auto pkt = native->flow().make_data(1);
  auto dn = native->network().send("h1", pkt);
  auto dh = hp4->network().send("h1", pkt);
  ASSERT_EQ(dn.size(), 1u);
  ASSERT_EQ(dh.size(), 1u);
  EXPECT_EQ(dn[0].packet, dh[0].packet);  // TTL, MACs, checksum all agree
  EXPECT_EQ(dn[0].host, "h2");
  EXPECT_EQ(dh[0].host, "h2");
}

TEST(ScenarioShape, FirewallResubmitVisibleInTrace) {
  auto hp4 = Scenario::make("firewall", true);
  auto res = hp4->probe_tcp();
  EXPECT_EQ(res.resubmits, 1u);
  auto native = Scenario::make("firewall", false);
  EXPECT_EQ(native->probe_tcp().resubmits, 0u);
}

TEST(ScenarioShape, JitterProducesVariance) {
  auto sc = Scenario::make("l2_sw", false);
  util::Rng rng(99);
  std::vector<double> runs;
  for (int i = 0; i < 10; ++i) runs.push_back(sc->iperf(30, &rng).mbps);
  auto s = mean_stddev(runs);
  EXPECT_GT(s.stddev, 0.0);
  EXPECT_LT(s.stddev, 0.1 * s.mean);
}

}  // namespace
}  // namespace hyper4::sim

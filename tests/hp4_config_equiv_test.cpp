// Equivalence holds across persona configurations, not just the paper's
// (4 stages, 9 primitives) test configuration: stage budgets, write-back
// granularities, parse-ladder variants and the ingress meter (with a
// non-binding threshold) must all preserve native behaviour.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "hp4/controller.h"

namespace hyper4::hp4 {
namespace {

using apps::Rule;

VirtualRule vr(const Rule& r) {
  return VirtualRule{r.table, r.action, r.keys, r.args, r.priority};
}

const char* kMacH1 = "02:00:00:00:00:01";
const char* kMacH2 = "02:00:00:00:00:02";
const char* kMacRtr = "02:aa:00:00:00:ff";

std::vector<Rule> rules_for(const std::string& app) {
  if (app == "l2_sw") {
    return {apps::l2_forward(kMacH1, 1), apps::l2_forward(kMacH2, 2)};
  }
  if (app == "firewall") {
    return {apps::firewall_l2_forward(kMacH1, 1),
            apps::firewall_l2_forward(kMacH2, 2),
            apps::firewall_block_tcp_dport(22, 10)};
  }
  if (app == "arp_proxy") {
    return {apps::arp_proxy_entry("10.0.0.2", kMacH2),
            apps::arp_proxy_l2_forward(kMacH1, 1),
            apps::arp_proxy_l2_forward(kMacH2, 2)};
  }
  return {apps::router_accept_mac(kMacRtr),
          apps::router_route("10.0.1.0", 24, "10.0.1.10", 2),
          apps::router_arp_entry("10.0.1.10", kMacH2),
          apps::router_port_mac(2, kMacRtr)};
}

std::vector<net::Packet> probes_for(const std::string& app) {
  std::vector<net::Packet> out;
  net::EthHeader eth;
  eth.src = net::mac_from_string(kMacH1);
  eth.dst = net::mac_from_string(app == "router" ? kMacRtr : kMacH2);
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string("10.0.0.1");
  ip.dst = net::ipv4_from_string("10.0.1.7");
  net::TcpHeader tcp;
  tcp.src_port = 40000;
  for (std::uint16_t dport : {80, 22}) {
    tcp.dst_port = dport;
    out.push_back(net::make_ipv4_tcp(eth, ip, tcp, 64));
  }
  out.push_back(net::make_arp_request(net::mac_from_string(kMacH1),
                                      net::ipv4_from_string("10.0.0.1"),
                                      net::ipv4_from_string("10.0.0.2")));
  return out;
}

std::vector<std::pair<std::uint16_t, std::string>> canon(
    const bm::ProcessResult& r) {
  std::vector<std::pair<std::uint16_t, std::string>> out;
  for (const auto& o : r.outputs) out.emplace_back(o.port, o.packet.to_hex());
  std::sort(out.begin(), out.end());
  return out;
}

// Minimum persona stages each app needs.
std::size_t min_stages(const std::string& app) {
  if (app == "l2_sw") return 2;
  if (app == "firewall") return 3;
  return 4;
}

struct ConfigCase {
  const char* label;
  PersonaConfig cfg;
};

std::vector<ConfigCase> config_cases() {
  std::vector<ConfigCase> cases;
  {
    PersonaConfig c;
    c.num_stages = 5;
    c.max_primitives = 9;
    cases.push_back({"stages5", c});
  }
  {
    PersonaConfig c;
    c.writeback_step_bytes = 1;  // the paper's per-byte resize actions
    cases.push_back({"wb1", c});
  }
  {
    PersonaConfig c;
    c.parse_default_bytes = 60;  // no resubmits needed by any app
    c.parse_step_bytes = 20;
    cases.push_back({"default60", c});
  }
  {
    PersonaConfig c;
    c.ingress_meter = true;
    c.meter_burst = 1 << 20;  // non-binding
    cases.push_back({"metered", c});
  }
  {
    PersonaConfig c;
    c.extracted_bits = 1024;  // wider PHV field than the paper's 800
    cases.push_back({"wide1024", c});
  }
  return cases;
}

class ConfigEquiv
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ConfigEquiv, EmulationMatchesNativeUnderConfig) {
  const auto [app, case_idx] = GetParam();
  const ConfigCase cc = config_cases()[static_cast<std::size_t>(case_idx)];
  if (cc.cfg.num_stages < min_stages(app)) GTEST_SKIP();

  bm::Switch native(apps::program_by_name(app));
  Controller ctl(cc.cfg);
  auto vdev = ctl.load(app, apps::program_by_name(app));
  ctl.attach_ports(vdev, {1, 2});
  ctl.bind(vdev, 1);
  ctl.bind(vdev, 2);
  for (const auto& r : rules_for(app)) {
    apps::apply_rule(native, r);
    ctl.add_rule(vdev, vr(r));
  }
  for (const auto& pkt : probes_for(app)) {
    auto n = native.inject(1, pkt);
    auto e = ctl.dataplane().inject(1, pkt);
    EXPECT_EQ(canon(n), canon(e)) << app << " config=" << cc.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigEquiv,
    ::testing::Combine(::testing::Values("l2_sw", "firewall", "router",
                                         "arp_proxy"),
                       ::testing::Range(0, 5)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             config_cases()[static_cast<std::size_t>(std::get<1>(info.param))]
                 .label;
    });

// Stage-budget boundary: a config exactly at an app's requirement works; one
// below it is rejected at compile time, never mis-emulated.
TEST(ConfigEquiv, StageBudgetBoundary) {
  for (const char* app : {"l2_sw", "firewall", "router", "arp_proxy"}) {
    const std::size_t need = min_stages(app);
    {
      PersonaConfig c;
      c.num_stages = need;
      Controller ctl(c);
      EXPECT_NO_THROW(ctl.load(app, apps::program_by_name(app))) << app;
    }
    if (need > 1) {
      PersonaConfig c;
      c.num_stages = need - 1;
      Controller ctl(c);
      EXPECT_THROW(ctl.load(app, apps::program_by_name(app)),
                   UnsupportedFeature)
          << app;
    }
  }
}

}  // namespace
}  // namespace hyper4::hp4

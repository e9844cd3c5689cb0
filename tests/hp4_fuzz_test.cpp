// Randomized equivalence fuzzing: for every app, generate random rule sets
// and random (well-formed) packets, and require the native program and its
// HyPer4 emulation to agree packet-for-packet. This is the repository's
// strongest evidence for the paper's core claim ("functionally equivalent
// to other P4 programs", §1).
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "hp4/controller.h"
#include "util/rng.h"

namespace hyper4::hp4 {
namespace {

using apps::Rule;
using util::Rng;

VirtualRule vr(const Rule& r) {
  return VirtualRule{r.table, r.action, r.keys, r.args, r.priority};
}

std::string rand_mac(Rng& rng, int pool) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "02:00:00:00:00:%02x",
                static_cast<unsigned>(rng.uniform(1, pool)));
  return buf;
}

std::string rand_ip(Rng& rng, int pool) {
  return "10." + std::to_string(rng.uniform(0, 3)) + ".0." +
         std::to_string(rng.uniform(1, pool));
}

net::Packet rand_packet(Rng& rng, int pool) {
  net::EthHeader eth;
  eth.src = net::mac_from_string(rand_mac(rng, pool));
  eth.dst = net::mac_from_string(rand_mac(rng, pool));
  const int kind = static_cast<int>(rng.uniform(0, 9));
  if (kind == 0) {  // ARP request
    return net::make_arp_request(eth.src, net::ipv4_from_string(rand_ip(rng, pool)),
                                 net::ipv4_from_string(rand_ip(rng, pool)));
  }
  if (kind == 1) {  // ARP reply
    return net::make_arp_reply(eth.src, net::ipv4_from_string(rand_ip(rng, pool)),
                               eth.dst, net::ipv4_from_string(rand_ip(rng, pool)));
  }
  net::Ipv4Header ip;
  ip.src = net::ipv4_from_string(rand_ip(rng, pool));
  ip.dst = net::ipv4_from_string(rand_ip(rng, pool));
  ip.ttl = static_cast<std::uint8_t>(rng.uniform(2, 64));
  const std::size_t payload = rng.uniform(0, 256);
  if (kind <= 5) {
    net::TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(rng.uniform(1, 65535));
    tcp.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 200));
    return net::make_ipv4_tcp(eth, ip, tcp, payload);
  }
  if (kind <= 7) {
    net::UdpHeader udp;
    udp.src_port = static_cast<std::uint16_t>(rng.uniform(1, 65535));
    udp.dst_port = static_cast<std::uint16_t>(rng.uniform(1, 200));
    return net::make_ipv4_udp(eth, ip, udp, payload);
  }
  net::IcmpHeader icmp;
  icmp.sequence = static_cast<std::uint16_t>(rng.uniform(0, 999));
  return net::make_ipv4_icmp_echo(eth, ip, icmp, payload);
}

std::vector<Rule> rand_rules(Rng& rng, const std::string& app, int pool) {
  std::vector<Rule> rules;
  const int n_fwd = static_cast<int>(rng.uniform(2, 6));
  if (app == "l2_sw") {
    for (int i = 0; i < n_fwd; ++i) {
      rules.push_back(apps::l2_forward(
          rand_mac(rng, pool), static_cast<std::uint16_t>(rng.uniform(1, 3))));
    }
  } else if (app == "firewall") {
    for (int i = 0; i < n_fwd; ++i) {
      rules.push_back(apps::firewall_l2_forward(
          rand_mac(rng, pool), static_cast<std::uint16_t>(rng.uniform(1, 3))));
    }
    const int n_block = static_cast<int>(rng.uniform(1, 4));
    for (int i = 0; i < n_block; ++i) {
      const auto dport = static_cast<std::uint16_t>(rng.uniform(1, 200));
      if (rng.coin()) {
        rules.push_back(apps::firewall_block_tcp_dport(dport, 10 + i));
      } else {
        rules.push_back(apps::firewall_block_udp_dport(dport, 10 + i));
      }
    }
    if (rng.coin(0.5)) {
      rules.push_back(apps::firewall_block_ip(rand_ip(rng, pool),
                                              "255.255.255.255", "0.0.0.0",
                                              "0.0.0.0", 30));
    }
  } else if (app == "arp_proxy") {
    for (int i = 0; i < n_fwd; ++i) {
      rules.push_back(apps::arp_proxy_l2_forward(
          rand_mac(rng, pool), static_cast<std::uint16_t>(rng.uniform(1, 3))));
    }
    const int n_proxy = static_cast<int>(rng.uniform(1, 4));
    for (int i = 0; i < n_proxy; ++i) {
      rules.push_back(apps::arp_proxy_entry(rand_ip(rng, pool), rand_mac(rng, pool)));
    }
  } else {  // router
    rules.push_back(apps::router_accept_mac("02:aa:00:00:00:ff"));
    const int n_routes = static_cast<int>(rng.uniform(1, 4));
    for (int i = 0; i < n_routes; ++i) {
      const std::string nhop = rand_ip(rng, pool);
      const auto port = static_cast<std::uint16_t>(rng.uniform(1, 3));
      const std::size_t plen = rng.coin() ? 24 : 16;
      rules.push_back(apps::router_route(
          "10." + std::to_string(rng.uniform(0, 3)) + ".0.0", plen, nhop, port));
      rules.push_back(apps::router_arp_entry(nhop, rand_mac(rng, pool)));
    }
    for (std::uint16_t p : {1, 2, 3}) {
      rules.push_back(apps::router_port_mac(p, "02:aa:00:00:00:ff"));
    }
  }
  return rules;
}

// Dedup rules whose keys collide (exact-match duplicates are rejected by
// both native table and DPMU translation identically, but keeping the rule
// generator collision-free makes setup deterministic).
std::vector<Rule> dedup(std::vector<Rule> rules) {
  std::set<std::string> seen;
  std::vector<Rule> out;
  for (auto& r : rules) {
    std::string key = r.table;
    for (const auto& k : r.keys) key += "|" + k;
    if (seen.insert(key).second) out.push_back(std::move(r));
  }
  return out;
}

std::vector<std::pair<std::uint16_t, std::string>> canon(
    const bm::ProcessResult& r) {
  std::vector<std::pair<std::uint16_t, std::string>> out;
  for (const auto& o : r.outputs) out.emplace_back(o.port, o.packet.to_hex());
  std::sort(out.begin(), out.end());
  return out;
}

class FuzzEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(FuzzEquivalence, RandomRulesRandomPackets) {
  const auto [app, seed] = GetParam();
  // HP4_CHECK_SEED offsets every sweep, so one env var re-randomizes the
  // fuzz, stress and check suites together. Failures print the full seed.
  const std::uint64_t base = util::env_seed(0);
  Rng rng(base + static_cast<std::uint64_t>(seed) * 1000003 + 17);
  constexpr int kPool = 6;

  const auto rules = dedup(rand_rules(rng, app, kPool));

  bm::Switch native(apps::program_by_name(app));
  Controller ctl;
  auto vdev = ctl.load(app, apps::program_by_name(app));
  ctl.attach_ports(vdev, {1, 2, 3});
  for (std::uint16_t p : {1, 2, 3}) ctl.bind(vdev, p);
  for (const auto& r : rules) {
    apps::apply_rule(native, r);
    ctl.add_rule(vdev, vr(r));
  }

  for (int i = 0; i < 25; ++i) {
    const auto pkt = rand_packet(rng, kPool);
    const auto port = static_cast<std::uint16_t>(rng.uniform(1, 3));
    auto n = native.inject(port, pkt);
    auto e = ctl.dataplane().inject(port, pkt);
    ASSERT_EQ(canon(n), canon(e))
        << app << " seed=" << seed << " base=" << base << " packet#" << i
        << " in=" << pkt.to_hex();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FuzzEquivalence,
    ::testing::Combine(::testing::Values("l2_sw", "firewall", "router",
                                         "arp_proxy"),
                       ::testing::Range(0, 8)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Runtime churn: entries added and deleted mid-stream keep both sides in
// lockstep (live reconfiguration, §4.1).
TEST(FuzzChurn, AddDeleteChurnStaysEquivalent) {
  const std::uint64_t churn_seed = util::env_seed(0xC0FFEE);
  Rng rng(churn_seed);
  bm::Switch native(apps::l2_switch());
  Controller ctl;
  auto vdev = ctl.load("l2", apps::l2_switch());
  ctl.attach_ports(vdev, {1, 2, 3});
  for (std::uint16_t p : {1, 2, 3}) ctl.bind(vdev, p);

  struct Live {
    Rule rule;
    std::uint64_t native_handle;
    std::uint64_t vhandle;
  };
  std::vector<Live> live;

  for (int step = 0; step < 60; ++step) {
    if (live.empty() || rng.coin(0.6)) {
      Rule r = apps::l2_forward(rand_mac(rng, 8),
                                static_cast<std::uint16_t>(rng.uniform(1, 3)));
      bool dup = false;
      for (const auto& l : live) {
        if (l.rule.keys == r.keys) dup = true;
      }
      if (!dup) {
        Live l;
        l.rule = r;
        l.native_handle = apps::apply_rule(native, r);
        l.vhandle = ctl.add_rule(vdev, vr(r));
        live.push_back(std::move(l));
      }
    } else {
      const std::size_t idx = rng.uniform(0, live.size() - 1);
      native.table_delete(live[idx].rule.table, live[idx].native_handle);
      ctl.dpmu().table_delete(vdev, live[idx].vhandle, "admin");
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Probe with a few random packets after each mutation.
    for (int i = 0; i < 3; ++i) {
      const auto pkt = rand_packet(rng, 8);
      const auto port = static_cast<std::uint16_t>(rng.uniform(1, 3));
      auto n = native.inject(port, pkt);
      auto e = ctl.dataplane().inject(port, pkt);
      ASSERT_EQ(canon(n), canon(e))
          << "step " << step << " seed=" << churn_seed;
    }
  }
}

}  // namespace
}  // namespace hyper4::hp4

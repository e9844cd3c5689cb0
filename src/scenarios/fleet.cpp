#include "scenarios/fleet.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"
#include "vm/vm.h"

namespace hyper4::scenarios {

using util::ConfigError;

hp4::VirtualRule to_virtual_rule(const Rule& r) {
  return hp4::VirtualRule{r.table, r.action, r.keys, r.args, r.priority};
}

ScenarioFleet::ScenarioFleet(FleetOptions opts) : opts_(opts) {
  if (opts_.tenants == 0) throw ConfigError("fleet: need at least one tenant");
  if (opts_.chain_depth < 1 || opts_.chain_depth > kNfCount - 1)
    throw ConfigError("fleet: chain_depth must be 1.." +
                      std::to_string(kNfCount - 1) +
                      " (a spare catalog kind is needed for hot-swap)");
  // Tenant i uses ports 2i+1 (in) and 2i+2 (out), see setup_tenant. Both
  // must fit the egress spec, whose all-ones value is the drop port.
  constexpr std::size_t kMaxTenants =
      ((std::size_t{1} << p4::kPortWidth) - 2) / 2;
  if (opts_.tenants > kMaxTenants)
    throw ConfigError("fleet: at most " + std::to_string(kMaxTenants) +
                      " tenants fit the " + std::to_string(p4::kPortWidth) +
                      "-bit egress spec (two ports per tenant)");

  if (!opts_.durable_dir.empty()) {
    store_ = std::make_unique<state::DurableController>(
        opts_.durable_dir, opts_.persona, opts_.store);
    ctl_ = &store_->controller();
  } else {
    owned_ctl_ = std::make_unique<hp4::Controller>(opts_.persona);
    ctl_ = owned_ctl_.get();
  }

  // Populate every tenant BEFORE the engine attaches: setup is thousands of
  // management ops, and each would otherwise trigger a full replica mirror.
  tenants_.reserve(opts_.tenants);
  for (std::size_t i = 0; i < opts_.tenants; ++i) setup_tenant(i);

  engine::EngineOptions eo;
  eo.workers = std::max<std::size_t>(1, opts_.engine_workers);
  eo.collect_results = true;
  eo.pin_workers = opts_.pin_workers;
  eng_ = std::make_unique<engine::TrafficEngine>(ctl_->dataplane().program(),
                                                 eo);
  ctl_->attach_engine(eng_.get());  // initial sync
  if (opts_.vm_path)
    eng_->set_packet_path(vm::engine_fast_path(ctl_->generator().config()));
}

ScenarioFleet::~ScenarioFleet() {
  if (ctl_) ctl_->attach_engine(nullptr);
  eng_.reset();
}

const ScenarioFleet::Tenant& ScenarioFleet::tenant(std::size_t i) const {
  return tenants_.at(i).pub;
}

// --- op router ----------------------------------------------------------------

hp4::VdevId ScenarioFleet::op_load(const std::string& name,
                                   const p4::Program& prog) {
  return store_ ? store_->load(name, prog) : ctl_->load(name, prog);
}

void ScenarioFleet::op_unload(hp4::VdevId id) {
  store_ ? store_->unload(id) : ctl_->unload(id);
}

void ScenarioFleet::op_chain(const std::vector<hp4::VdevId>& devices,
                             const std::vector<std::uint16_t>& ports) {
  store_ ? store_->chain(devices, ports) : ctl_->chain(devices, ports);
}

std::uint64_t ScenarioFleet::op_add_rule(hp4::VdevId id,
                                         const hp4::VirtualRule& rule) {
  return store_ ? store_->add_rule(id, rule) : ctl_->add_rule(id, rule);
}

void ScenarioFleet::op_delete_rule(hp4::VdevId id, std::uint64_t vhandle) {
  store_ ? store_->delete_rule(id, vhandle) : ctl_->delete_rule(id, vhandle);
}

void ScenarioFleet::txn_begin() {
  store_ ? store_->txn_begin() : ctl_->suspend_engine_refresh();
}

void ScenarioFleet::txn_commit() {
  store_ ? static_cast<void>(store_->txn_commit())
         : ctl_->resume_engine_refresh();
}

// --- setup --------------------------------------------------------------------

std::string ScenarioFleet::vdev_basename(std::size_t tenant, std::size_t pos,
                                         NfKind k) const {
  return "t" + std::to_string(tenant) + "p" + std::to_string(pos) + "_" +
         nf_name(k);
}

void ScenarioFleet::setup_tenant(std::size_t i) {
  TenantState ts;
  ts.pub.plan = make_tenant_plan(static_cast<std::uint32_t>(i));
  ts.pub.in_port = static_cast<std::uint16_t>(2 * i + 1);
  ts.pub.out_port = static_cast<std::uint16_t>(2 * i + 2);
  const auto& cat = nf_catalog();
  for (std::size_t pos = 0; pos < opts_.chain_depth; ++pos) {
    const NfKind k = cat[(i + pos) % cat.size()];
    ts.pub.chain.push_back(k);
    ts.pub.vdevs.push_back(op_load(vdev_basename(i, pos, k), nf_program(k)));
  }
  op_chain(ts.pub.vdevs, {ts.pub.in_port, ts.pub.out_port});
  ts.installed.resize(opts_.chain_depth);
  install_flow_rules(ts);
  ts.pub.flow_packet = tenant_flow_packet(ts.pub.plan);
  tenants_.push_back(std::move(ts));
}

void ScenarioFleet::delete_rules(TenantState& t, std::size_t pos,
                                 bool flow_only) {
  auto& v = t.installed[pos];
  for (auto it = v.begin(); it != v.end();) {
    if (!flow_only || it->flow) {
      op_delete_rule(t.pub.vdevs[pos], it->vhandle);
      it = v.erase(it);
    } else {
      ++it;
    }
  }
}

void ScenarioFleet::install_flow_rules(TenantState& t) {
  FlowView view = initial_flow_view(t.pub.plan);
  for (std::size_t pos = 0; pos < t.pub.chain.size(); ++pos) {
    delete_rules(t, pos, /*flow_only=*/true);
    for (const Rule& r :
         nf_flow_rules(t.pub.chain[pos], t.pub.plan, view, t.pub.out_port)) {
      const hp4::VirtualRule vr = to_virtual_rule(r);
      const std::uint64_t vh = op_add_rule(t.pub.vdevs[pos], vr);
      t.installed[pos].push_back(Installed{vh, vr, true});
    }
  }
}

// --- traffic ------------------------------------------------------------------

std::uint64_t ScenarioFleet::inject_wave(std::size_t packets_per_tenant) {
  std::uint64_t n = 0;
  for (auto& ts : tenants_) {
    for (std::size_t k = 0; k < packets_per_tenant; ++k) {
      eng_->inject(ts.pub.in_port, ts.pub.flow_packet);
      ++n;
    }
  }
  wave_injected_per_tenant_ = packets_per_tenant;
  wave_injected_ += n;
  return n;
}

WaveResult ScenarioFleet::drain_wave() {
  const engine::MergedResult m = eng_->drain();
  WaveResult w;
  w.injected = wave_injected_;
  w.drained = m.packets;
  w.delivered.assign(tenants_.size(), 0);
  for (const auto& pr : m.per_packet) {
    for (const auto& o : pr.outputs) {
      if (o.port >= 2 && o.port % 2 == 0) {
        const std::size_t t = (o.port - 2) / 2;
        if (t < w.delivered.size()) ++w.delivered[t];
      }
    }
  }
  w.drops = m.totals.drops;
  w.parse_errors = m.totals.parse_errors;
  w.recirculations = m.totals.recirculations;
  for (std::size_t i = 0; i < w.delivered.size(); ++i)
    if (w.delivered[i] != wave_injected_per_tenant_) w.all_delivered = false;
  wave_injected_ = 0;
  wave_injected_per_tenant_ = 0;
  return w;
}

// --- live operations ----------------------------------------------------------

std::size_t ScenarioFleet::churn_tenant(std::size_t i, std::size_t ops) {
  TenantState& ts = tenants_.at(i);
  const TenantPlan& p = ts.pub.plan;
  std::size_t issued = 0;
  txn_begin();
  for (std::size_t round = 0; round < ops; ++round) {
    const std::size_t pos = round % ts.pub.chain.size();
    const NfKind k = ts.pub.chain[pos];
    const std::uint32_t f = ts.pub.next_flow++;
    // Stranger addressing: 192.168/16 sources and sub-20000 ports never
    // collide with the canonical flow (10/8 + 172/8 addresses, ports
    // >= 20000), so churn can never change wave delivery.
    const std::string stranger = "192.168." + std::to_string((f >> 8) & 0xFF) +
                                 "." + std::to_string(f & 0xFF);
    const std::uint16_t sport =
        static_cast<std::uint16_t>(1000 + (f % 19000));
    const std::int32_t prio = static_cast<std::int32_t>(100 + (f % 100000));
    std::vector<Rule> add;
    switch (k) {
      case NfKind::kNat:  // allocate a binding: snat + dnat pair
        add.push_back(nat_snat(p.client_ip, sport, p.nat_ip, sport));
        add.push_back(nat_dnat(p.nat_ip, sport, p.client_ip, sport));
        break;
      case NfKind::kBalancer:  // pin a new connection
        add.push_back(lb_conn(stranger, sport, p.backend_ip, p.backend_mac));
        break;
      case NfKind::kAcl:  // block an attacker source
        add.push_back(acl_deny_src(stranger, "255.255.255.255", prio));
        break;
      case NfKind::kLimiter:  // token bucket ran dry for a source
        add.push_back(limiter_drop(stranger, prio));
        break;
      case NfKind::kTagger:  // tag a newly observed flow
        add.push_back(tagger_tag(stranger, static_cast<std::uint16_t>(f)));
        break;
    }
    for (const Rule& r : add) {
      const hp4::VirtualRule vr = to_virtual_rule(r);
      const std::uint64_t vh = op_add_rule(ts.pub.vdevs[pos], vr);
      ts.installed[pos].push_back(Installed{vh, vr, false});
      ++issued;
    }
    // Expire the oldest churn entries past the window.
    auto& v = ts.installed[pos];
    std::size_t churn_count = 0;
    for (const auto& e : v)
      if (!e.flow) ++churn_count;
    while (churn_count > opts_.churn_window) {
      auto it = std::find_if(v.begin(), v.end(),
                             [](const Installed& e) { return !e.flow; });
      op_delete_rule(ts.pub.vdevs[pos], it->vhandle);
      v.erase(it);
      --churn_count;
      ++issued;
    }
  }
  txn_commit();
  return issued;
}

hp4::VdevId ScenarioFleet::hot_swap(std::size_t i) {
  TenantState& ts = tenants_.at(i);
  const std::size_t pos = ts.pub.swaps % ts.pub.chain.size();
  // First catalog kind not currently in the chain (chain_depth < kNfCount
  // guarantees one exists).
  NfKind newk = ts.pub.chain[pos];
  for (NfKind k : nf_catalog()) {
    if (std::find(ts.pub.chain.begin(), ts.pub.chain.end(), k) ==
        ts.pub.chain.end()) {
      newk = k;
      break;
    }
  }

  txn_begin();
  const hp4::VdevId old = ts.pub.vdevs[pos];
  const hp4::VdevId nv =
      op_load(vdev_basename(i, pos, newk) + "#" + std::to_string(++name_salt_),
              nf_program(newk));
  ts.pub.vdevs[pos] = nv;
  ts.pub.chain[pos] = newk;
  ts.installed[pos].clear();  // the old vdev's entries die with unload
  op_chain(ts.pub.vdevs, {ts.pub.in_port, ts.pub.out_port});
  // A different NF at `pos` changes the header transforms every later
  // position sees; recompute the whole chain's flow rules inside the txn.
  install_flow_rules(ts);
  op_unload(old);
  txn_commit();
  ++ts.pub.swaps;
  return nv;
}

ScenarioFleet::SliceSnapshot ScenarioFleet::snapshot_tenant(
    std::size_t i) const {
  const TenantState& ts = tenants_.at(i);
  SliceSnapshot s;
  s.tenant = i;
  s.chain = ts.pub.chain;
  s.rules.resize(ts.installed.size());
  for (std::size_t pos = 0; pos < ts.installed.size(); ++pos)
    for (const Installed& e : ts.installed[pos])
      s.rules[pos].push_back(SnapRule{e.rule, e.flow});
  return s;
}

void ScenarioFleet::restore_tenant(std::size_t i, const SliceSnapshot& snap) {
  TenantState& ts = tenants_.at(i);
  if (snap.tenant != i || snap.chain.size() != ts.pub.chain.size())
    throw ConfigError("fleet: snapshot does not match tenant " +
                      std::to_string(i));
  txn_begin();
  // Swap back any position whose NF kind changed since the snapshot.
  std::vector<hp4::VdevId> to_unload;
  bool rechain = false;
  for (std::size_t pos = 0; pos < ts.pub.chain.size(); ++pos) {
    if (ts.pub.chain[pos] == snap.chain[pos]) continue;
    to_unload.push_back(ts.pub.vdevs[pos]);
    ts.pub.vdevs[pos] = op_load(
        vdev_basename(i, pos, snap.chain[pos]) + "#" +
            std::to_string(++name_salt_),
        nf_program(snap.chain[pos]));
    ts.pub.chain[pos] = snap.chain[pos];
    ts.installed[pos].clear();
    rechain = true;
  }
  if (rechain) op_chain(ts.pub.vdevs, {ts.pub.in_port, ts.pub.out_port});
  // Reset every position's rules to the snapshot image.
  for (std::size_t pos = 0; pos < ts.pub.chain.size(); ++pos) {
    delete_rules(ts, pos, /*flow_only=*/false);
    for (const SnapRule& sr : snap.rules[pos]) {
      const std::uint64_t vh = op_add_rule(ts.pub.vdevs[pos], sr.rule);
      ts.installed[pos].push_back(Installed{vh, sr.rule, sr.flow});
    }
  }
  for (hp4::VdevId id : to_unload) op_unload(id);
  txn_commit();
}

std::size_t ScenarioFleet::installed_rules(std::size_t i,
                                           std::size_t pos) const {
  return tenants_.at(i).installed.at(pos).size();
}

std::string ScenarioFleet::report() const {
  std::size_t entries = 0, swaps = 0;
  for (const auto& ts : tenants_) {
    for (const auto& v : ts.installed) entries += v.size();
    swaps += ts.pub.swaps;
  }
  std::ostringstream os;
  os << "fleet: " << tenants_.size() << " tenants x depth "
     << opts_.chain_depth << ", " << tenants_.size() * opts_.chain_depth
     << " vdevs, " << entries << " installed rules, " << swaps
     << " hot-swaps, engine epoch " << (eng_ ? eng_->epoch() : 0)
     << (store_ ? ", durable @" + store_->dir() : "");
  return os.str();
}

}  // namespace hyper4::scenarios

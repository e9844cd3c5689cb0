#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <time.h>
#include <unistd.h>

#include "bm/switch.h"
#include "spans.h"
#include "state/digest.h"
#include "state/store.h"
#include "vm/vm.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace sc = hyper4::scenarios;
using Clock = std::chrono::steady_clock;

namespace {

// --- workload shapes --------------------------------------------------------

constexpr std::size_t kChainDepth = 3;
// With the generator thread, three busy threads on a 4-vCPU host leave a
// core for the host.
constexpr std::size_t kEngineWorkers = 2;
constexpr std::size_t kChurnRounds = 8;  // churn_tenant rounds per txn
// Churn txns and hot-swaps per run: each p90 has 20 samples beyond it.
constexpr std::size_t kOpSamples = 200;
// One round per --second (at least kMinRounds). A round is 1 s of op-free
// saturating waves (fleet_steady) or 10 waves carrying ops, and — in a
// traced run — one block of paced packets.
constexpr std::size_t kMinRounds = 4;
constexpr double kSaturationSeconds = 1.0;
constexpr std::size_t kSamplesPerRound = 4;  // op-free pps samples per round
constexpr std::size_t kWavesPerSample = 5;   // op-carrying waves per sample
constexpr double kOpWavesPerSecond = 10;
// Paced packets: a fixed absolute rate well below capacity; latency
// percentiles are taken per block and the median block reported.
constexpr double kPacedPps = 1000;
constexpr std::size_t kPacedBlock = 500;
constexpr std::size_t kSideStoreTenants = 8;

struct Spec {
  std::size_t tenants = 0;
  bool durable = false;
  // One churn txn + one hot-swap inside every saturating wave. Without it
  // the workload has no control ops; its traced run takes the per-layer
  // control samples after the timed rounds.
  bool ops_in_waves = false;
  std::size_t setup_reps = 0;
  std::size_t packets_per_tenant = 0;  // per saturating wave
};

Spec spec_of(Workload w) {
  switch (w) {
    case Workload::kFleetSteady:
      return {100, false, false, 9, 4};
    case Workload::kFleetChurn:
      return {100, false, true, 9, 4};
    case Workload::kDurableCtl:
      return {32, true, true, 5, 8};
  }
  return {};
}

// --- small helpers ----------------------------------------------------------

double since_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of the calling thread: the clock engine::busy_seconds uses, so
// the layer probes reconcile against worker busy time like for like.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// Peak resident set (VmHWM) in MiB.
double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ls(line.substr(6));
      double kb = 0;
      ls >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string fmt(double v, int prec = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

// Entries installed across every persona table (the lookup working set).
std::size_t persona_entries(const hyper4::bm::Switch& sw) {
  std::size_t n = 0;
  for (const std::string& t : sw.table_names()) n += sw.table(t).size();
  return n;
}

std::uint64_t counter(hyper4::engine::TrafficEngine& eng, const char* name) {
  return eng.metrics().counter(name).value();
}

std::uint64_t diag(const std::map<std::string, std::uint64_t>& d,
                   const char* key) {
  const auto it = d.find(key);
  return it == d.end() ? 0 : it->second;
}

// Rules of the same shapes churn_tenant installs, on addresses no tenant
// flow or churn entry uses (198.18/15, ports 40000+), for the layer probes.
std::vector<hyper4::hp4::VirtualRule> probe_rules(
    const sc::ScenarioFleet::Tenant& t, std::size_t n) {
  std::vector<hyper4::hp4::VirtualRule> out;
  const sc::NfKind k = t.chain.front();
  const sc::TenantPlan& p = t.plan;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string ip = "198.18." + std::to_string((i >> 8) & 0xFF) + "." +
                           std::to_string(i & 0xFF);
    const auto port = static_cast<std::uint16_t>(40000 + i);
    const auto prio = static_cast<std::int32_t>(200000 + i);
    sc::Rule r;
    switch (k) {
      case sc::NfKind::kNat:
        r = sc::nat_snat(ip, port, p.nat_ip, port);
        break;
      case sc::NfKind::kBalancer:
        r = sc::lb_conn(ip, port, p.backend_ip, p.backend_mac);
        break;
      case sc::NfKind::kAcl:
        r = sc::acl_deny_src(ip, "255.255.255.255", prio);
        break;
      case sc::NfKind::kLimiter: r = sc::limiter_drop(ip, prio); break;
      case sc::NfKind::kTagger: r = sc::tagger_tag(ip, port); break;
    }
    out.push_back(sc::to_virtual_rule(r));
  }
  return out;
}

// --- the run ----------------------------------------------------------------

class Runner {
 public:
  explicit Runner(const RunConfig& cfg)
      : cfg_(cfg), spec_(spec_of(cfg.workload)), log_(cfg.trace),
        rng_(cfg.seed) {}

  RunResult run();

 private:
  sc::FleetOptions fleet_options(std::size_t tenants,
                                 const std::string& dir) const;
  std::string fresh_dir(const char* tag);
  void gate(bool ok, const std::string& what);
  void account_wave(const sc::WaveResult& w, std::size_t per_tenant);
  void setup_phase(std::size_t reps);
  void timed_phase();
  void control_block(std::size_t n, std::size_t& next_tenant);
  void saturation_block(bool traced, std::size_t waves, std::size_t& wave);
  void paced_block();
  void control_op(std::size_t tenant);
  void recover_phase();
  // Traced-run layer probes.
  struct PathProbe {
    double mirror_ms = 0, vm_ns = 0, bm_ns = 0, lookups = 0, recirc = 0;
  };
  PathProbe probe_paths();
  void probe_digest();
  void probe_controller(hyper4::hp4::Controller& ctl,
                        const sc::ScenarioFleet::Tenant& t);
  void probe_store(hyper4::state::DurableController& store,
                   const sc::ScenarioFleet::Tenant& t);
  void side_store_probe();
  void finish_end_to_end();
  void finish_per_layer();

  void metric(const std::string& name, double v, const std::string& unit) {
    res_.metrics.push_back(Metric{name, v, unit});
  }
  void fact(const std::string& k, const std::string& v) {
    res_.facts.emplace_back(k, v);
  }

  const RunConfig& cfg_;
  const Spec spec_;
  SpanLog log_;
  std::mt19937_64 rng_;
  RunResult res_;
  std::vector<std::size_t> order_;  // seeded tenant rotation
  std::unique_ptr<sc::ScenarioFleet> fleet_;
  std::string store_dir_;
  std::size_t dir_seq_ = 0;

  // End-to-end samples.
  std::vector<double> setup_s_, block_pps_, traced_block_pps_, lat_us_,
      late_us_, txn_ms_, swap_ms_, lat_block_p50_, lat_block_p90_;
  std::uint64_t txns_ = 0, churn_ops_ = 0;
  std::uint64_t epoch0_ = 0;
  std::size_t entries0_ = 0, entries1_ = 0;  // persona entries, start/end
  // Saturation-phase engine accounting (per-layer).
  double sat_wall_s_ = 0;
  std::uint64_t sat_packets_ = 0, traced_injected_ = 0;
  std::vector<double> busy_s_;
  std::uint64_t d_merge_stall_ns_ = 0, d_consumer_waits_ = 0,
                d_arena_fresh_ = 0;
  std::map<std::string, std::uint64_t> diag0_, diag1_;
  // Layer probes (traced run). Path probes run before and after the timed
  // rounds and are averaged, so they see the states those rounds saw.
  std::vector<PathProbe> path_probes_;
  std::uint64_t probe_syncs_ = 0;
  double digest_ms_ = 0, rule_op_us_ = 0, load_ms_ = 0, op_overhead_us_ = 0,
         recover_s_ = 0, replay_ops_per_s_ = 0;
};

sc::FleetOptions Runner::fleet_options(std::size_t tenants,
                                       const std::string& dir) const {
  sc::FleetOptions fo;
  fo.tenants = tenants;
  fo.chain_depth = kChainDepth;
  fo.engine_workers = kEngineWorkers;
  fo.vm_path = true;
  fo.seed = cfg_.seed;
  fo.durable_dir = dir;
  return fo;
}

std::string Runner::fresh_dir(const char* tag) {
  const fs::path p = fs::path(cfg_.work_dir) /
                     (std::string(tag) + "-" + std::to_string(::getpid()) +
                      "-" + std::to_string(dir_seq_++));
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

void Runner::gate(bool ok, const std::string& what) {
  if (ok) return;
  if (res_.gate_failures.size() < 16) res_.gate_failures.push_back(what);
}

void Runner::account_wave(const sc::WaveResult& w, std::size_t per_tenant) {
  res_.attempted += w.injected;
  std::uint64_t missing = 0;
  for (std::size_t t = 0; t < w.delivered.size(); ++t)
    if (w.delivered[t] < per_tenant) {
      missing += per_tenant - w.delivered[t];
      gate(false, "delivery: tenant " + std::to_string(t) + " delivered " +
                      std::to_string(w.delivered[t]) + "/" +
                      std::to_string(per_tenant) + " canonical packets");
    }
  res_.failed += missing;
  gate(w.drained == w.injected,
       "delivery: drained " + std::to_string(w.drained) + " of " +
           std::to_string(w.injected) + " injected");
}

// Fleet build up to the first delivered wave, `reps` times; the last fleet
// is kept (for the timed phases, when called before them).
void Runner::setup_phase(std::size_t reps) {
  for (std::size_t r = 0; r < reps; ++r) {
    fleet_.reset();
    if (!store_dir_.empty()) fs::remove_all(store_dir_);
    store_dir_ = spec_.durable ? fresh_dir("store") : "";
    Scope s(log_, "scenarios.setup");
    const auto t0 = Clock::now();
    fleet_ = std::make_unique<sc::ScenarioFleet>(
        fleet_options(spec_.tenants, store_dir_));
    fleet_->inject_wave(1);
    const sc::WaveResult w = fleet_->drain_wave();
    setup_s_.push_back(since_s(t0));
    account_wave(w, 1);
  }
}

// One churn transaction then one hot-swap on `tenant`, each timed from
// call to return.
void Runner::control_op(std::size_t tenant) {
  res_.attempted += 2;
  try {
    Scope s(log_, "scenarios.churn_tenant");
    const auto t0 = Clock::now();
    churn_ops_ += fleet_->churn_tenant(tenant, kChurnRounds);
    txn_ms_.push_back(since_s(t0) * 1e3);
    ++txns_;
  } catch (const std::exception& e) {
    ++res_.failed;
    gate(false, std::string("churn txn threw: ") + e.what());
  }
  try {
    Scope s(log_, "scenarios.hot_swap");
    const auto t0 = Clock::now();
    fleet_->hot_swap(tenant);
    swap_ms_.push_back(since_s(t0) * 1e3);
    ++txns_;
  } catch (const std::exception& e) {
    ++res_.failed;
    gate(false, std::string("hot-swap txn threw: ") + e.what());
  }
}

// Control samples of an op-free workload's traced run, taken on the idle
// data plane after the timed rounds. Each tenant's slice is restored
// afterwards (one more txn), so the path probe that follows sees the
// fleet's initial tables.
void Runner::control_block(std::size_t n, std::size_t& next_tenant) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t t = order_[next_tenant++ % order_.size()];
    const sc::ScenarioFleet::SliceSnapshot snap = fleet_->snapshot_tenant(t);
    control_op(t);
    ++res_.attempted;
    try {
      Scope s(log_, "scenarios.restore_tenant");
      fleet_->restore_tenant(t, snap);
      ++txns_;
    } catch (const std::exception& e) {
      ++res_.failed;
      gate(false, std::string("restore txn threw: ") + e.what());
    }
  }
  // VM units recompile after the txns here, not in the path probe.
  fleet_->inject_wave(1);
  account_wave(fleet_->drain_wave(), 1);
}

// The timed phase, in rounds (see kMinRounds). Several pps samples per
// round; their median damps a host slowdown of a second or two. A traced run
// interleaves a paced block with every round, so both see the same host,
// and records spans in odd rounds only, so even rounds size the overhead.
void Runner::timed_phase() {
  auto& eng = fleet_->engine();
  if (cfg_.trace) path_probes_.push_back(probe_paths());
  probe_syncs_ = 0;
  entries0_ = persona_entries(fleet_->controller().dataplane());
  epoch0_ = eng.epoch();
  diag0_ = eng.packet_path_diagnostics();
  busy_s_.assign(eng.workers(), 0.0);
  const std::size_t rounds =
      std::max<std::size_t>(kMinRounds, static_cast<std::size_t>(cfg_.seconds));
  // Waves that carry control ops grow the fleet's state, so their count is
  // fixed by --seconds (not by elapsed time): every run does the same work.
  const std::size_t op_waves = std::max<std::size_t>(
      kOpSamples, static_cast<std::size_t>(cfg_.seconds * kOpWavesPerSecond));
  const std::size_t waves_per_round = (op_waves + rounds - 1) / rounds;
  std::size_t wave = 0, next_tenant = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool traced = cfg_.trace && r % 2 == 1;
    log_.set_recording(traced);
    Scope rs(log_, "round");
    saturation_block(traced, spec_.ops_in_waves ? waves_per_round : 0, wave);
    if (cfg_.trace) paced_block();
  }
  log_.set_recording(true);
  if (cfg_.trace && !spec_.ops_in_waves) control_block(kOpSamples, next_tenant);
  if (cfg_.trace) path_probes_.push_back(probe_paths());
  if (lat_us_.empty()) return;
  res_.report.push_back(
      "paced: " + std::to_string(lat_us_.size()) + " pkts at " +
      fmt(kPacedPps, 0) + " pkt/s; latency p50/p90/p99 " +
      fmt(quantile(lat_us_, 0.5), 1) + "/" + fmt(quantile(lat_us_, 0.9), 1) +
      "/" + fmt(quantile(lat_us_, 0.99), 1) +
      " us; generator late p50/p90/p99 " + fmt(quantile(late_us_, 0.5), 1) +
      "/" + fmt(quantile(late_us_, 0.9), 1) + "/" +
      fmt(quantile(late_us_, 0.99), 1) + " us");
}

// Closed-loop saturating waves: `waves` of them with a churn txn and a
// hot-swap each, or (waves == 0) as many op-free waves as fit the round's
// saturation share. One pps sample per chunk (kWavesPerSample waves, or a
// quarter of the saturation share), so the median over the run shrugs off a
// host stall; engine counters and worker busy time are accumulated over
// saturating waves only.
void Runner::saturation_block(bool traced, std::size_t waves,
                              std::size_t& wave) {
  auto& eng = fleet_->engine();
  const std::uint64_t stall0 = counter(eng, "merge_stall_ns");
  const std::uint64_t waits0 = counter(eng, "consumer_waits");
  const std::uint64_t fresh0 = counter(eng, "arena_fresh_allocs");
  std::vector<double> busy0;
  for (std::size_t i = 0; i < eng.workers(); ++i)
    busy0.push_back(eng.busy_seconds(i));

  const std::size_t chunks =
      waves ? std::max<std::size_t>(1, waves / kWavesPerSample)
            : kSamplesPerRound;
  const auto t0 = Clock::now();
  std::uint64_t drained = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    // The last chunk of op-carrying waves takes the remainder.
    const std::size_t n =
        waves ? (c + 1 < chunks ? waves / chunks
                                : waves - c * (waves / chunks))
              : 0;
    const auto c0 = Clock::now();
    std::uint64_t chunk = 0;
    for (std::size_t k = 0;
         n ? k < n : since_s(c0) < kSaturationSeconds / chunks; ++k, ++wave) {
      if (cfg_.before_wave) cfg_.before_wave(*fleet_, wave);
      Scope ws(log_, "wave");
      {
        Scope s(log_, "scenarios.inject_wave");
        const std::uint64_t in = fleet_->inject_wave(spec_.packets_per_tenant);
        if (traced) traced_injected_ += in;
      }
      if (spec_.ops_in_waves) control_op(order_[wave % order_.size()]);
      sc::WaveResult w;
      {
        Scope s(log_, "scenarios.drain_wave");
        w = fleet_->drain_wave();
      }
      account_wave(w, spec_.packets_per_tenant);
      chunk += w.drained;
    }
    (traced ? traced_block_pps_ : block_pps_)
        .push_back(static_cast<double>(chunk) / since_s(c0));
    drained += chunk;
  }
  const double dt = since_s(t0);
  sat_packets_ += drained;
  sat_wall_s_ += dt;
  for (std::size_t i = 0; i < eng.workers(); ++i)
    busy_s_[i] += eng.busy_seconds(i) - busy0[i];
  d_merge_stall_ns_ += counter(eng, "merge_stall_ns") - stall0;
  d_consumer_waits_ += counter(eng, "consumer_waits") - waits0;
  d_arena_fresh_ += counter(eng, "arena_fresh_allocs") - fresh0;
}

// Open loop: single packets due at a fixed absolute rate, tenants in seeded
// rotation. Latency runs from each packet's due time to its result; one
// p50/p90 sample per block.
void Runner::paced_block() {
  auto& eng = fleet_->engine();
  // One full wave first: units the VM must recompile after the last
  // control op do so here, not inside the first paced packets.
  fleet_->inject_wave(1);
  account_wave(fleet_->drain_wave(), 1);
  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / kPacedPps));
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const std::size_t first = lat_us_.size();
  for (std::size_t i = 0; i < kPacedBlock; ++i) {
    const auto& t = fleet_->tenant(order_[(first + i) % order_.size()]);
    const auto due = start + interval * static_cast<std::int64_t>(i);
    wait_until(due);
    const auto sent = Clock::now();
    hyper4::engine::MergedResult m;
    {
      Scope s(log_, "engine.inject");
      eng.inject(t.in_port, t.flow_packet);
    }
    {
      Scope s(log_, "engine.collect_ready");
      while (m.per_packet.empty()) m = eng.collect_ready();
    }
    const auto done = Clock::now();
    using Us = std::chrono::duration<double, std::micro>;
    late_us_.push_back(Us(sent - due).count());
    lat_us_.push_back(Us(done - due).count());
    ++res_.attempted;
    bool delivered = false;
    for (const auto& o : m.per_packet.front().outputs)
      delivered = delivered || o.port == t.out_port;
    if (!delivered) {
      ++res_.failed;
      gate(false, "delivery: paced packet to tenant port " +
                      std::to_string(t.in_port) + " missed egress port " +
                      std::to_string(t.out_port));
    }
  }
  eng.drain();
  const std::vector<double> blk(
      lat_us_.begin() + static_cast<std::ptrdiff_t>(first), lat_us_.end());
  lat_block_p50_.push_back(quantile(blk, 0.5));
  lat_block_p90_.push_back(quantile(blk, 0.9));
}

// Close the durable store and reopen it: the recovered state digest must
// equal the live digest taken before close.
void Runner::recover_phase() {
  auto* store = fleet_->store();
  const std::uint64_t live = store->digest();
  const sc::ScenarioFleet::Tenant probe_tenant = fleet_->tenant(order_.front());
  fleet_.reset();
  std::unique_ptr<hyper4::state::DurableController> reopened;
  {
    Scope s(log_, "state.reopen");
    const auto t0 = Clock::now();
    reopened = std::make_unique<hyper4::state::DurableController>(
        store_dir_, hyper4::hp4::PersonaConfig{},
        hyper4::state::StoreOptions{});
    recover_s_ = since_s(t0);
  }
  const auto& rep = reopened->recovery();
  replay_ops_per_s_ = static_cast<double>(rep.replayed) / recover_s_;
  const std::uint64_t got = reopened->digest();
  gate(rep.digest_ok, "recovery: journal digest check failed");
  gate(rep.replay_failures == 0,
       "recovery: " + std::to_string(rep.replay_failures) + " replay failures");
  gate(got == live, "recovery: recovered digest " +
                        hyper4::state::digest_hex(got) + " != live " +
                        hyper4::state::digest_hex(live));
  res_.report.push_back("recovery: reopened in " + fmt(recover_s_) + " s, " +
                        std::to_string(rep.replayed) +
                        " records replayed, digest " +
                        hyper4::state::digest_hex(got) +
                        (got == live ? " == live" : " != live"));
  if (cfg_.trace && res_.gate_failures.empty()) {
    probe_controller(reopened->controller(), probe_tenant);
    probe_store(*reopened, probe_tenant);
  }
  reopened.reset();
  fs::remove_all(store_dir_);
  store_dir_.clear();
}

// engine.mirror_ms (TrafficEngine::sync_from timed directly), vm.chain_ns
// and bm.chain_ns at the fleet's current state. Mirrors bump the engine
// epoch; the epoch gate counts them.
Runner::PathProbe Runner::probe_paths() {
  auto& ctl = fleet_->controller();
  auto& eng = fleet_->engine();
  PathProbe p;
  std::vector<double> mirror;
  for (int i = 0; i < 9; ++i) {
    Scope s(log_, "engine.sync_from");
    const auto t0 = Clock::now();
    eng.sync_from(ctl.dataplane());
    mirror.push_back(since_s(t0) * 1e3);
    ++probe_syncs_;
  }
  p.mirror_ms = median(mirror);

  // A replica synced from the controller's dataplane, like an engine
  // worker's, with the VM path over it; the interpreter is the reference.
  hyper4::bm::Switch replica(ctl.dataplane().program());
  replica.sync_state_from(ctl.dataplane());
  hyper4::vm::VmExecutor vmx(replica, ctl.generator().config());
  const std::size_t n = fleet_->tenants();
  std::uint64_t lookups = 0, recirc = 0;
  for (std::size_t i = 0; i < n; ++i) {  // warm-up + VM/interpreter agreement
    const auto& t = fleet_->tenant(i);
    const auto a = vmx.process(t.in_port, t.flow_packet);
    const auto b = replica.inject(t.in_port, t.flow_packet);
    gate(a.outputs == b.outputs,
         "vm probe: VM and interpreter disagree on tenant " +
             std::to_string(i));
    lookups += b.applied.size();
    recirc += b.recirculations;
  }
  p.lookups = static_cast<double>(lookups) / static_cast<double>(n);
  p.recirc = static_cast<double>(recirc) / static_cast<double>(n);
  auto per_packet_ns = [&](int rounds, const char* span, auto&& fn) {
    std::vector<double> per_round;
    for (int r = 0; r < rounds; ++r) {
      Scope s(log_, span);
      const double t0 = thread_cpu_ns();
      for (std::size_t i = 0; i < n; ++i) fn(fleet_->tenant(i));
      per_round.push_back((thread_cpu_ns() - t0) / static_cast<double>(n));
    }
    return median(per_round);
  };
  p.vm_ns = per_packet_ns(15, "vm.process", [&](const auto& t) {
    vmx.process(t.in_port, t.flow_packet);
  });
  p.bm_ns = per_packet_ns(3, "bm.inject", [&](const auto& t) {
    replica.inject(t.in_port, t.flow_packet);
  });
  return p;
}

void Runner::probe_digest() {
  std::vector<double> digest;
  for (int i = 0; i < 5; ++i) {
    Scope s(log_, "state.digest");
    const auto t0 = Clock::now();
    volatile std::uint64_t d =
        hyper4::state::state_digest(fleet_->controller());
    (void)d;
    digest.push_back(since_s(t0) * 1e3);
  }
  digest_ms_ = median(digest);
}

// hp4.rule_op_us (add/delete with engine refresh suspended) and
// hp4.load_ms on `ctl`, using tenant `t`'s front NF.
void Runner::probe_controller(hyper4::hp4::Controller& ctl,
                              const sc::ScenarioFleet::Tenant& t) {
  const auto rules = probe_rules(t, 32);
  const hyper4::hp4::VdevId vdev = t.vdevs.front();
  std::vector<double> op_us;
  ctl.suspend_engine_refresh();
  for (int round = 0; round < 3; ++round) {
    std::vector<std::uint64_t> handles;
    for (const auto& r : rules) {
      Scope s(log_, "hp4.add_rule");
      const auto t0 = Clock::now();
      handles.push_back(ctl.add_rule(vdev, r));
      op_us.push_back(since_s(t0) * 1e6);
    }
    for (const std::uint64_t h : handles) {
      Scope s(log_, "hp4.delete_rule");
      const auto t0 = Clock::now();
      ctl.delete_rule(vdev, h);
      op_us.push_back(since_s(t0) * 1e6);
    }
  }
  const hyper4::p4::Program prog = sc::nf_program(t.chain.front());
  std::vector<double> load;
  for (int i = 0; i < 5; ++i) {
    Scope s(log_, "hp4.load");
    const auto t0 = Clock::now();
    const hyper4::hp4::VdevId id =
        ctl.load("probe_load_" + std::to_string(i), prog);
    load.push_back(since_s(t0) * 1e3);
    ctl.unload(id);
  }
  ctl.resume_engine_refresh();
  rule_op_us_ = median(op_us);
  load_ms_ = median(load);
}

// state.op_overhead_us: a journaled op inside an open store transaction
// minus the same plain controller op at equal state (the txn is aborted, so
// the plain ops run on the state the durable ones saw).
void Runner::probe_store(hyper4::state::DurableController& store,
                         const sc::ScenarioFleet::Tenant& t) {
  const auto rules = probe_rules(t, 32);
  const hyper4::hp4::VdevId vdev = t.vdevs.front();
  std::vector<double> durable_us, plain_us;
  for (int round = 0; round < 3; ++round) {
    store.txn_begin();
    std::vector<std::uint64_t> handles;
    for (const auto& r : rules) {
      Scope s(log_, "state.add_rule");
      const auto t0 = Clock::now();
      handles.push_back(store.add_rule(vdev, r));
      durable_us.push_back(since_s(t0) * 1e6);
    }
    for (const std::uint64_t h : handles) {
      Scope s(log_, "state.delete_rule");
      const auto t0 = Clock::now();
      store.delete_rule(vdev, h);
      durable_us.push_back(since_s(t0) * 1e6);
    }
    store.txn_abort();
    auto& ctl = store.controller();
    handles.clear();
    for (const auto& r : rules) {
      const auto t0 = Clock::now();
      handles.push_back(ctl.add_rule(vdev, r));
      plain_us.push_back(since_s(t0) * 1e6);
    }
    for (const std::uint64_t h : handles) {
      const auto t0 = Clock::now();
      ctl.delete_rule(vdev, h);
      plain_us.push_back(since_s(t0) * 1e6);
    }
  }
  op_overhead_us_ = median(durable_us) - median(plain_us);
}

// Plain fleets have no durable layer; the state.* probes run on a small
// durable side fleet, closed and reopened like durable_ctl's.
void Runner::side_store_probe() {
  const std::string dir = fresh_dir("side");
  std::uint64_t live = 0;
  std::optional<sc::ScenarioFleet::Tenant> tenant;
  {
    auto fo = fleet_options(kSideStoreTenants, dir);
    fo.engine_workers = 1;
    fo.vm_path = false;
    sc::ScenarioFleet side(fo);
    for (std::size_t i = 0; i < kSideStoreTenants; ++i)
      side.churn_tenant(i, kChurnRounds);
    live = side.store()->digest();
    tenant = side.tenant(0);
  }
  {
    const auto t0 = Clock::now();
    hyper4::state::DurableController store(dir, hyper4::hp4::PersonaConfig{},
                                           hyper4::state::StoreOptions{});
    recover_s_ = since_s(t0);
    replay_ops_per_s_ =
        static_cast<double>(store.recovery().replayed) / recover_s_;
    gate(store.digest() == live, "side store: recovered digest != live digest");
    probe_store(store, *tenant);
  }
  fs::remove_all(dir);
}

void Runner::finish_end_to_end() {
  metric("pps", median(block_pps_), "pkt/s");
  metric("setup_s", median(setup_s_), "s");
  metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void Runner::finish_per_layer() {
  // Probes average the states the timed rounds ran on (before and after).
  const PathProbe& p0 = path_probes_.at(0);
  const PathProbe& p1 = path_probes_.at(1);
  const double vm_chain_ns = (p0.vm_ns + p1.vm_ns) / 2;
  const double mirror_ms = (p0.mirror_ms + p1.mirror_ms) / 2;
  const double workers = static_cast<double>(busy_s_.size());
  const double pkts = static_cast<double>(sat_packets_);
  const double busy_total = sum(busy_s_);
  const double busy_ns = busy_total * 1e9 / pkts;
  const double wall_ns = sat_wall_s_ * 1e9 / pkts;
  const double idle_ns = workers * wall_ns - busy_ns;
  const double overhead_ns = busy_ns - vm_chain_ns;
  const double busy_max = *std::max_element(busy_s_.begin(), busy_s_.end());

  auto delta = [&](const char* key) {
    return static_cast<double>(diag(diag1_, key) - diag(diag0_, key));
  };
  const double bytecode = delta("packets_bytecode");
  const double fallback = delta("packets_fallback");
  const double recompiles_per_txn =
      delta("recompiles") / static_cast<double>(txns_);
  const double churn_txns = static_cast<double>(txn_ms_.size());
  const double ops_per_txn = static_cast<double>(churn_ops_) / churn_txns;
  // Reconciled as means: a mean is the sum of its parts, a percentile not.
  const double txn_mean = sum(txn_ms_) / churn_txns;
  const double op_us =
      rule_op_us_ + (spec_.durable ? op_overhead_us_ : 0);
  const double op_cost_ms = ops_per_txn * op_us / 1e3;
  const double unattributed = txn_mean - op_cost_ms - mirror_ms;
  const double untraced_pps = median(block_pps_);
  const double traced_pps = median(traced_block_pps_);

  metric("scenarios.inject_ns_per_pkt",
         sum(log_.durations_ns("scenarios.inject_wave")) /
             static_cast<double>(traced_injected_),
         "ns");
  metric("scenarios.drain_wait_ms",
         median(log_.durations_ns("scenarios.drain_wave")) / 1e6, "ms");
  metric("engine.busy_ns_per_pkt", busy_ns, "ns");
  metric("engine.busy_imbalance", busy_max / (busy_total / workers), "ratio");
  metric("engine.merge_stall_ns_per_pkt",
         static_cast<double>(d_merge_stall_ns_) / pkts, "ns");
  metric("engine.consumer_waits_per_kpkt",
         static_cast<double>(d_consumer_waits_) * 1e3 / pkts, "count");
  metric("engine.arena_fresh_allocs", static_cast<double>(d_arena_fresh_),
         "count");
  metric("engine.mirror_ms", mirror_ms, "ms");
  metric("engine.idle_ns_per_pkt", idle_ns, "ns");
  metric("engine.overhead_ns_per_pkt", overhead_ns, "ns");
  metric("vm.chain_ns", vm_chain_ns, "ns");
  metric("vm.fallback_ratio", fallback / (bytecode + fallback), "ratio");
  metric("vm.recompiles_per_txn", recompiles_per_txn, "count");
  metric("vm.packets_fallback",
         static_cast<double>(diag(diag1_, "packets_fallback")), "count");
  metric("vm.compile_failures",
         static_cast<double>(diag(diag1_, "compile_failures")), "count");
  metric("bm.chain_ns", (p0.bm_ns + p1.bm_ns) / 2, "ns");
  metric("bm.lookups_per_pkt", (p0.lookups + p1.lookups) / 2, "count");
  metric("bm.recirculations_per_pkt", (p0.recirc + p1.recirc) / 2, "count");
  metric("hp4.rule_op_us", rule_op_us_, "us");
  metric("hp4.load_ms", load_ms_, "ms");
  metric("state.digest_ms", digest_ms_, "ms");
  metric("state.op_overhead_us", op_overhead_us_, "us");
  metric("state.replay_ops_per_s", replay_ops_per_s_, "1/s");
  metric("state.recover_s", recover_s_, "s");
  metric("ctl.txn_p50_ms", quantile(txn_ms_, 0.5), "ms");
  metric("ctl.txn_p90_ms", quantile(txn_ms_, 0.9), "ms");
  metric("ctl.hot_swap_p50_ms", quantile(swap_ms_, 0.5), "ms");
  metric("ctl.hot_swap_p90_ms", quantile(swap_ms_, 0.9), "ms");
  metric("ctl.unattributed_ms", unattributed, "ms");
  metric("paced.lat_p50_us", median(lat_block_p50_), "us");
  metric("paced.lat_p90_us", median(lat_block_p90_), "us");
  metric("paced.gen_late_p90_us", quantile(late_us_, 0.9), "us");
  metric("trace.overhead_pps", traced_pps - untraced_pps, "pkt/s");

  auto& r = res_.report;
  r.push_back("tracing overhead: traced - untraced pps = " +
              fmt(traced_pps, 0) + " - " + fmt(untraced_pps, 0) + " = " +
              fmt(traced_pps - untraced_pps, 0) + " pkt/s (" +
              std::to_string(traced_block_pps_.size()) + " vs " +
              std::to_string(block_pps_.size()) + " samples)");
  r.push_back("reconcile per packet (saturating waves, " +
              std::to_string(sat_packets_) + " pkts): workers x wall = " +
              fmt(workers, 0) + " x " + fmt(wall_ns, 0) + " = " +
              fmt(workers * wall_ns, 0) + " ns = engine.busy_ns_per_pkt " +
              fmt(busy_ns, 0) + " + engine.idle_ns_per_pkt " +
              fmt(idle_ns, 0));
  r.push_back("reconcile per packet: engine.busy_ns_per_pkt " +
              fmt(busy_ns, 0) + " = vm.chain_ns " + fmt(vm_chain_ns, 0) +
              " + engine.overhead_ns_per_pkt " + fmt(overhead_ns, 0));
  r.push_back("reconcile per txn (mean of " + std::to_string(txn_ms_.size()) +
              " churn txns): ctl_txn " + fmt(txn_mean) + " ms = " +
              fmt(ops_per_txn, 1) + " ops x (hp4.rule_op_us " +
              fmt(rule_op_us_, 1) +
              (spec_.durable
                   ? " + state.op_overhead_us " + fmt(op_overhead_us_, 1)
                   : "") +
              ") " + fmt(op_cost_ms) + " ms + engine.mirror_ms " +
              fmt(mirror_ms) + " + ctl.unattributed_ms " + fmt(unattributed));
  if (spec_.ops_in_waves) {
    r.push_back("  engine.overhead_ns_per_pkt includes the VM unit recompiles "
                "each txn forces on the next packets (vm.recompiles_per_txn " +
                fmt(recompiles_per_txn, 1) + ")");
    r.push_back("  ctl.unattributed_ms includes waiting for the replica locks "
                "workers hold while they process the wave (a txn lands "
                "between batches)");
  }
  if (spec_.durable)
    r.push_back("  ctl.unattributed_ms includes the txn's fixed store work: "
                "one pre-txn state digest (state.digest_ms " +
                fmt(digest_ms_) +
                "), the rollback snapshot and the commit record");
}

RunResult Runner::run() {
  fs::create_directories(cfg_.work_dir);
  try {
    // Set-up is sampled at both ends of the run, so a host slowdown that
    // covers only one end moves the median less.
    const std::size_t late_setups = spec_.setup_reps / 2;
    setup_phase(spec_.setup_reps - late_setups);
    order_.resize(fleet_->tenants());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::shuffle(order_.begin(), order_.end(), rng_);
    timed_phase();
    fleet_->inject_wave(1);  // delivery after the last control op
    account_wave(fleet_->drain_wave(), 1);
    auto& eng = fleet_->engine();
    diag1_ = eng.packet_path_diagnostics();
    const std::uint64_t epochs = eng.epoch() - epoch0_ - probe_syncs_;
    gate(epochs == txns_, "epoch: engine advanced " + std::to_string(epochs) +
                              " epochs for " + std::to_string(txns_) +
                              " transactions");
    entries1_ = persona_entries(fleet_->controller().dataplane());
    res_.report.push_back(
        "gates: epochs " + std::to_string(epochs) + " for " +
        std::to_string(txns_) + " txns; persona entries " +
        std::to_string(entries0_) + " -> " + std::to_string(entries1_) +
        "; vm packets_fallback=" +
        std::to_string(diag(diag1_, "packets_fallback")) +
        " compile_failures=" +
        std::to_string(diag(diag1_, "compile_failures")));
    if (cfg_.trace && res_.gate_failures.empty()) probe_digest();
    if (spec_.durable) {
      recover_phase();
    } else if (cfg_.trace && res_.gate_failures.empty()) {
      const auto t = fleet_->tenant(order_.front());
      probe_controller(fleet_->controller(), t);
      side_store_probe();
    }
    setup_phase(late_setups);
  } catch (const std::exception& e) {
    gate(false, std::string("exception: ") + e.what());
  }
  fleet_.reset();
  if (!store_dir_.empty()) fs::remove_all(store_dir_);

  res_.correct = res_.gate_failures.empty() && res_.failed == 0;
  fact("workload", workload_name(cfg_.workload));
  fact("tenants", std::to_string(spec_.tenants));
  fact("chain_depth", std::to_string(kChainDepth));
  fact("engine_workers", std::to_string(kEngineWorkers));
  fact("vm_path", "true");
  fact("durable", spec_.durable ? "true" : "false");
  fact("setup_reps", std::to_string(setup_s_.size()));
  fact("pps_samples", std::to_string(block_pps_.size()));
  fact("sat_packets", std::to_string(sat_packets_));
  fact("paced_pps", fmt(kPacedPps, 0));
  fact("paced_samples", std::to_string(lat_us_.size()));
  fact("ctl_txn_samples", std::to_string(txn_ms_.size()));
  fact("hot_swap_samples", std::to_string(swap_ms_.size()));
  if (!res_.correct) return res_;
  if (cfg_.trace) {
    finish_per_layer();
    res_.trace_file = (fs::path(cfg_.work_dir) /
                       ("trace-" + workload_name(cfg_.workload) + "-seed" +
                        std::to_string(cfg_.seed) + ".json"))
                          .string();
    log_.write_chrome_json(res_.trace_file);
  } else {
    finish_end_to_end();
  }
  return res_;
}

}  // namespace

std::optional<Workload> workload_by_name(const std::string& name) {
  for (Workload w : {Workload::kFleetSteady, Workload::kFleetChurn,
                     Workload::kDurableCtl})
    if (workload_name(w) == name) return w;
  return std::nullopt;
}

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetSteady: return "fleet_steady";
    case Workload::kFleetChurn: return "fleet_churn";
    case Workload::kDurableCtl: return "durable_ctl";
  }
  return "?";
}

RunResult run_workload(const RunConfig& cfg) { return Runner(cfg).run(); }

}  // namespace perfbench

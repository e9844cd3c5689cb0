#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <ctime>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/error.h"

namespace hyper4::engine {

using util::ConfigError;

namespace {

// Per-thread CPU time. Worker busy accounting must not include time the
// thread spent scheduled out (on a box with fewer cores than workers,
// wall time inside inject() would count the *other* workers' progress),
// so the makespan measure packets/max-busy stays meaningful anywhere.
std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void accumulate(bm::ProcessResult& into, const bm::ProcessResult& r) {
  into.resubmits += r.resubmits;
  into.recirculations += r.recirculations;
  into.clones_i2e += r.clones_i2e;
  into.clones_e2e += r.clones_e2e;
  into.multicast_copies += r.multicast_copies;
  into.drops += r.drops;
  into.parse_errors += r.parse_errors;
  into.loop_kills += r.loop_kills;
}

void pin_to_core(std::size_t index) {
#if defined(__linux__)
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(index % n), &set);
  // Best effort: a restricted cpuset (container) may reject the mask.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)index;
#endif
}

}  // namespace

MergedResult merge_results(std::vector<bm::ProcessResult> per_packet) {
  MergedResult m;
  m.packets = per_packet.size();
  for (const auto& r : per_packet) {
    accumulate(m.totals, r);
    m.totals.outputs.insert(m.totals.outputs.end(), r.outputs.begin(),
                            r.outputs.end());
    m.totals.applied.insert(m.totals.applied.end(), r.applied.begin(),
                            r.applied.end());
    m.totals.digests.insert(m.totals.digests.end(), r.digests.begin(),
                            r.digests.end());
  }
  m.per_packet = std::move(per_packet);
  return m;
}

TrafficEngine::TrafficEngine(p4::Program prog, EngineOptions opts)
    : opts_(opts) {
  if (opts_.workers == 0)
    throw ConfigError("engine: worker count must be >= 1");
  if (opts_.batch_size == 0) opts_.batch_size = 1;

  m_packets_ = &metrics_.counter("packets");
  m_outputs_ = &metrics_.counter("outputs");
  m_drops_ = &metrics_.counter("drops");
  m_resubmits_ = &metrics_.counter("resubmits");
  m_recirculates_ = &metrics_.counter("recirculates");
  m_parse_errors_ = &metrics_.counter("parse_errors");
  m_loop_kills_ = &metrics_.counter("loop_kills");
  m_batches_ = &metrics_.counter("batches");
  m_backpressure_ = &metrics_.counter("backpressure_waits");
  m_consumer_waits_ = &metrics_.counter("consumer_waits");
  m_merge_stall_ns_ = &metrics_.counter("merge_stall_ns");
  m_drain_wait_ns_ = &metrics_.counter("drain_wait_ns");
  m_arena_fresh_ = &metrics_.counter("arena_fresh_allocs");
  m_control_ops_ = &metrics_.counter("control_ops");
  m_txn_batches_ = &metrics_.counter("txn_batches");
  h_latency_us_ = &metrics_.histogram(
      "packet_latency_us",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  h_stages_ = &metrics_.histogram(
      "stages_per_packet", {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64});
  reorder_.set_stall_counter(m_merge_stall_ns_);

  // Arena stock must exceed the worst-case in-flight buffer count (full
  // shard ring + one batch being processed + one batch staged) so a warmed
  // steady state never needs a fresh allocation.
  const std::size_t stock =
      std::max<std::size_t>(opts_.queue_capacity, 1) + 2 * opts_.batch_size;

  workers_.reserve(opts_.workers);
  for (std::size_t i = 0; i < opts_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    w->sw = std::make_unique<bm::Switch>(prog, opts_.switch_options);
    if (opts_.profile) {
      obs::TracerOptions topts;
      topts.record_events = false;  // histograms only on the worker path
      topts.profile = true;
      w->tracer = std::make_unique<obs::PipelineTracer>(topts);
      w->sw->set_tracer(w->tracer.get());
    }
    w->inbox = std::make_unique<MpscChannel<Job>>(
        opts_.queue_capacity, m_backpressure_, m_consumer_waits_);
    w->arena = std::make_unique<PacketArena>(stock, m_arena_fresh_);
    w->stage.reserve(opts_.batch_size);
    workers_.push_back(std::move(w));
  }
  for (auto& w : workers_) {
    w->th = std::thread([this, &w = *w] { worker_loop(w); });
  }
}

TrafficEngine::~TrafficEngine() {
  for (auto& w : workers_) w->inbox->close();
  for (auto& w : workers_) {
    if (w->th.joinable()) w->th.join();
  }
}

const bm::Switch& TrafficEngine::replica(std::size_t i) const {
  if (i >= workers_.size())
    throw ConfigError("engine: no worker " + std::to_string(i));
  return *workers_[i]->sw;
}

void TrafficEngine::worker_loop(Worker& w) {
  if (opts_.pin_workers) pin_to_core(w.index);
  std::vector<Job> batch;
  batch.reserve(opts_.batch_size);
  std::vector<std::pair<std::uint64_t, bm::ProcessResult>> completed;
  if (opts_.collect_results) completed.reserve(opts_.batch_size);
  for (;;) {
    if (!w.inbox->pop_batch(batch, opts_.batch_size)) break;
    {
      std::lock_guard<std::mutex> replica_lock(w.replica_mu);
      for (auto& job : batch) {
        const std::uint64_t t0 = thread_cpu_ns();
        bm::ProcessResult r = w.path ? w.path->process(job.port, job.packet)
                                     : w.sw->inject(job.port, job.packet);
        const std::uint64_t ns = thread_cpu_ns() - t0;
        w.busy_ns.fetch_add(ns, std::memory_order_relaxed);
        h_latency_us_->observe(static_cast<double>(ns) / 1e3);
        h_stages_->observe(static_cast<double>(r.match_count()));
        m_packets_->inc();
        m_outputs_->inc(r.outputs.size());
        m_drops_->inc(r.drops);
        m_resubmits_->inc(r.resubmits);
        m_recirculates_->inc(r.recirculations);
        m_parse_errors_->inc(r.parse_errors);
        m_loop_kills_->inc(r.loop_kills);

        if (w.egress) (*w.egress)(job.seq, r);

        if (opts_.collect_results) {
          completed.emplace_back(job.seq, std::move(r));
        } else {
          std::lock_guard<std::mutex> results_lock(w.results_mu);
          ++w.packets;
          accumulate(w.totals, r);
        }
      }
    }
    // Stream the batch into the deterministic merge (emits every result
    // whose predecessors are all done) before recycling buffers, so a
    // drainer woken by the reorder buffer observes fully-processed state.
    if (!completed.empty()) reorder_.deliver(completed);
    for (auto& job : batch) w.arena->recycle(std::move(job.packet));
    m_batches_->inc();
    processed_.fetch_add(batch.size(), std::memory_order_acq_rel);
    // Take the drain lock (empty section) so a drainer that just evaluated
    // its predicate cannot miss this notification.
    { std::lock_guard<std::mutex> lk(drain_mu_); }
    drained_cv_.notify_all();
  }
}

template <typename Fn>
void TrafficEngine::fan_out(Fn&& fn) {
  std::lock_guard<std::mutex> control_lock(control_mu_);
  std::vector<std::unique_lock<std::mutex>> replica_locks;
  replica_locks.reserve(workers_.size());
  for (auto& w : workers_) replica_locks.emplace_back(w->replica_mu);
  // Apply to replica 0 first: validation errors (CommandError) are
  // deterministic functions of program + state, so a failure here fails
  // before any replica diverged.
  fn(*workers_[0]->sw);
  for (std::size_t i = 1; i < workers_.size(); ++i) fn(*workers_[i]->sw);
  epoch_.fetch_add(1, std::memory_order_release);
  m_control_ops_->inc();
}

void TrafficEngine::sync_from(const bm::Switch& src) {
  fan_out([&](bm::Switch& sw) { sw.sync_state_from(src); });
}

void TrafficEngine::set_packet_path(PacketPathFactory factory) {
  std::lock_guard<std::mutex> control_lock(control_mu_);
  std::vector<std::unique_lock<std::mutex>> replica_locks;
  replica_locks.reserve(workers_.size());
  for (auto& w : workers_) replica_locks.emplace_back(w->replica_mu);
  for (auto& w : workers_) {
    w->path = factory ? factory(*w->sw) : nullptr;
  }
  epoch_.fetch_add(1, std::memory_order_release);
  m_control_ops_->inc();
}

void TrafficEngine::set_egress_hook(EgressHook hook) {
  std::lock_guard<std::mutex> control_lock(control_mu_);
  std::vector<std::unique_lock<std::mutex>> replica_locks;
  replica_locks.reserve(workers_.size());
  for (auto& w : workers_) replica_locks.emplace_back(w->replica_mu);
  const auto shared =
      hook ? std::make_shared<const EgressHook>(std::move(hook)) : nullptr;
  for (auto& w : workers_) w->egress = shared;
  epoch_.fetch_add(1, std::memory_order_release);
  m_control_ops_->inc();
}

std::map<std::string, std::uint64_t> TrafficEngine::packet_path_diagnostics()
    const {
  std::map<std::string, std::uint64_t> sum;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->replica_mu);
    if (!w->path) continue;
    for (const auto& [k, v] : w->path->diagnostics()) sum[k] += v;
  }
  return sum;
}

void TrafficEngine::apply_atomic(
    const std::vector<std::function<void(bm::Switch&)>>& ops) {
  fan_out([&](bm::Switch& sw) {
    for (const auto& op : ops) op(sw);
  });
  m_txn_batches_->inc();
}

void TrafficEngine::export_profile() {
  if (!opts_.profile) return;
  obs::StageProfile merged;
  std::vector<std::string> names;
  for (auto& w : workers_) {
    // Between-batches synchronization point: the worker holds replica_mu
    // for the whole batch, so the profile is quiescent while we read it.
    std::lock_guard<std::mutex> lk(w->replica_mu);
    merged.merge(w->tracer->profile());
    if (names.empty()) names = w->tracer->table_names();
    w->tracer->reset_profile();
  }
  const std::vector<double> bounds = obs::latency_bucket_bounds();
  const auto fold = [&](const std::string& name,
                        const obs::LatencyHist& h) {
    if (!h.count) return;
    Histogram& dst = metrics_.histogram(name, bounds);
    bool sum_folded = false;
    for (std::size_t i = 0; i < obs::LatencyHist::kBuckets; ++i) {
      if (!h.buckets[i]) continue;
      dst.add(i, h.buckets[i],
              sum_folded ? 0.0 : static_cast<double>(h.sum_ns));
      sum_folded = true;
    }
  };
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    fold(std::string("stage_ns_") +
             obs::stage_name(static_cast<obs::Stage>(s)),
         merged.stages[s]);
  }
  for (std::size_t t = 0; t < merged.per_table.size(); ++t) {
    fold("table_lookup_ns." +
             (t < names.size() ? names[t] : std::to_string(t)),
         merged.per_table[t]);
  }
}

std::uint64_t TrafficEngine::table_add(const std::string& table,
                                       const std::string& action,
                                       std::vector<bm::KeyParam> key,
                                       std::vector<util::BitVec> action_args,
                                       std::int32_t priority) {
  std::uint64_t handle = 0;
  bool first = true;
  fan_out([&](bm::Switch& sw) {
    const std::uint64_t h =
        sw.table_add(table, action, key, action_args, priority);
    if (first) {
      handle = h;
      first = false;
    } else if (h != handle) {
      throw ConfigError("engine: replica handle divergence on table_add to '" +
                        table + "' (" + std::to_string(handle) + " vs " +
                        std::to_string(h) + ")");
    }
  });
  return handle;
}

void TrafficEngine::table_set_default(const std::string& table,
                                      const std::string& action,
                                      std::vector<util::BitVec> action_args) {
  fan_out([&](bm::Switch& sw) {
    sw.table_set_default(table, action, action_args);
  });
}

void TrafficEngine::table_modify(const std::string& table,
                                 const std::string& action,
                                 std::uint64_t handle,
                                 std::vector<util::BitVec> action_args) {
  fan_out([&](bm::Switch& sw) {
    sw.table_modify(table, action, handle, action_args);
  });
}

void TrafficEngine::table_delete(const std::string& table,
                                 std::uint64_t handle) {
  fan_out([&](bm::Switch& sw) { sw.table_delete(table, handle); });
}

void TrafficEngine::mirror_add(std::uint32_t session, std::uint16_t port) {
  fan_out([&](bm::Switch& sw) { sw.mirror_add(session, port); });
}

void TrafficEngine::mc_group_set(
    std::uint16_t group,
    std::vector<std::pair<std::uint16_t, std::uint16_t>> port_rid_pairs) {
  fan_out([&](bm::Switch& sw) { sw.mc_group_set(group, port_rid_pairs); });
}

void TrafficEngine::register_write(const std::string& reg, std::size_t index,
                                   const util::BitVec& v) {
  fan_out([&](bm::Switch& sw) { sw.register_write(reg, index, v); });
}

void TrafficEngine::set_time(double t) {
  fan_out([&](bm::Switch& sw) { sw.set_time(t); });
}

void TrafficEngine::advance_time(double dt) {
  fan_out([&](bm::Switch& sw) { sw.advance_time(dt); });
}

std::uint64_t TrafficEngine::inject(std::uint16_t port, net::Packet packet) {
  const std::size_t shard = shard_of(packet);
  const std::uint64_t seq =
      enqueued_.fetch_add(1, std::memory_order_acq_rel);
  Worker& w = *workers_[shard];
  w.inbox->push(Job{seq, port, std::move(packet)});
  return seq;
}

void TrafficEngine::flush_stage(Worker& w) {
  if (w.stage.empty()) return;
  w.inbox->push(w.stage.data(), w.stage.size());
  w.stage.clear();
}

void TrafficEngine::inject_batch(std::span<const InjectItem> items) {
  std::lock_guard<std::mutex> inject_lock(inject_mu_);
  for (const auto& item : items) {
    Worker& w = *workers_[shard_of(item.packet)];
    const std::uint64_t seq =
        enqueued_.fetch_add(1, std::memory_order_acq_rel);
    w.stage.push_back(
        Job{seq, item.port, w.arena->acquire(item.packet.bytes())});
    if (w.stage.size() >= opts_.batch_size) flush_stage(w);
  }
  for (auto& w : workers_) flush_stage(*w);
}

MergedResult TrafficEngine::drain() {
  const std::uint64_t target = enqueued_.load(std::memory_order_acquire);
  if (opts_.collect_results) {
    const std::uint64_t t0 = wall_ns();
    reorder_.wait_emitted(target);
    m_drain_wait_ns_->inc(wall_ns() - t0);
    return reorder_.take_ready();
  }
  const std::uint64_t t0 = wall_ns();
  {
    std::unique_lock<std::mutex> lk(drain_mu_);
    drained_cv_.wait(lk, [&] {
      return processed_.load(std::memory_order_acquire) >= target;
    });
  }
  m_drain_wait_ns_->inc(wall_ns() - t0);
  // All workers are now between batches for everything enqueued before the
  // call; collect the numeric totals under the results locks.
  MergedResult m;
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->results_mu);
    m.packets += w->packets;
    accumulate(m.totals, w->totals);
    w->totals = bm::ProcessResult{};
    w->packets = 0;
  }
  return m;
}

MergedResult TrafficEngine::collect_ready() {
  if (!opts_.collect_results) {
    throw ConfigError(
        "TrafficEngine::collect_ready needs collect_results=true");
  }
  reorder_.wait_any_ready(enqueued_.load(std::memory_order_acquire));
  return reorder_.take_ready();
}

std::uint64_t TrafficEngine::counter_packets_total(const std::string& counter,
                                                   std::size_t index) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->sw->counter_packets(counter, index);
  return total;
}

std::uint64_t TrafficEngine::counter_bytes_total(const std::string& counter,
                                                 std::size_t index) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->sw->counter_bytes(counter, index);
  return total;
}

util::BitVec TrafficEngine::register_read(const std::string& reg,
                                          std::size_t index) const {
  if (workers_.size() != 1) {
    throw util::ConfigError(
        "TrafficEngine::register_read: registers are per-flow replica state; "
        "an engine-wide read needs workers=1 (have " +
        std::to_string(workers_.size()) + ")");
  }
  return workers_[0]->sw->register_read(reg, index);
}

bm::Switch::Stats TrafficEngine::stats_total() const {
  bm::Switch::Stats s;
  for (const auto& w : workers_) {
    const auto& ws = w->sw->stats();
    s.packets_in += ws.packets_in;
    s.packets_out += ws.packets_out;
    s.drops += ws.drops;
    s.resubmits += ws.resubmits;
    s.recirculations += ws.recirculations;
    s.clones += ws.clones;
    s.parse_errors += ws.parse_errors;
    s.loop_kills += ws.loop_kills;
  }
  return s;
}

double TrafficEngine::busy_seconds(std::size_t i) const {
  if (i >= workers_.size())
    throw ConfigError("engine: no worker " + std::to_string(i));
  return static_cast<double>(
             workers_[i]->busy_ns.load(std::memory_order_relaxed)) /
         1e9;
}

double TrafficEngine::max_busy_seconds() const {
  double m = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i)
    m = std::max(m, busy_seconds(i));
  return m;
}

void TrafficEngine::reset_busy() {
  for (auto& w : workers_) w->busy_ns.store(0, std::memory_order_relaxed);
}

}  // namespace hyper4::engine

// The concurrent, batched traffic engine.
//
// N workers each own a *private replica* of a bm::Switch compiled from the
// same p4::Program and carrying mirrored runtime state (tables with
// identical entry handles, registers, meters, counters, multicast/mirror
// config, logical clock, RNG state). Flows are sharded to workers by a
// stable hash of the parsed 5-tuple (engine/flow.h), so all packets of a
// flow hit the same replica in injection order — per-flow stateful
// semantics hold with no locks on the packet path.
//
// Data path (rebuilt for real wall-clock scaling — see DESIGN.md):
//   * one MpscChannel per worker (ring.h): a cacheline-padded SPSC ring
//     with batched push/pop and a condvar slow path only when full/empty,
//     its producers serialized by a tiny mutex, uncontended for one
//     injector (the fabric's node inbox is the same channel);
//   * a per-worker packet arena (arena.h) recycles net::Packet buffers from
//     the result path back to inject_batch(), so the steady-state inject
//     path performs zero heap allocations;
//   * a sequence-numbered reorder buffer (reorder.h) streams the
//     deterministic merge: results emit in injection order as the next
//     sequence completes instead of being sorted behind a whole-wave
//     barrier at drain();
//   * optional core-affinity pinning of workers (EngineOptions::pin_workers).
//
// Control-plane operations (table_add / table_modify / ...) fan out to
// every replica atomically: the control thread takes every replica lock (in
// index order, so concurrent control ops cannot deadlock), applies the
// operation everywhere, and bumps a generation counter (epoch()). Workers
// hold their replica lock for the duration of one batch, so a control op
// lands between batches on every worker and never splits one.
//
// Determinism contract:
//   * workers=1 is bit-identical to calling bm::Switch::inject() directly
//     in injection order (same replica state, same order, same RNG), so
//     every native-vs-HyPer4 equivalence test extends to the engine.
//   * For flow-disjoint workloads (no cross-flow register/meter coupling in
//     the P4 program), the merged per-packet trace is identical for any
//     worker count: per-flow order is FIFO and results emit in injection-
//     sequence order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bm/switch.h"
#include "engine/arena.h"
#include "engine/flow.h"
#include "engine/metrics.h"
#include "engine/reorder.h"
#include "engine/ring.h"
#include "net/packet.h"
#include "p4/ir.h"

namespace hyper4::engine {

struct EngineOptions {
  std::size_t workers = 1;
  // Per-worker shard-ring capacity (rounded up to a power of two);
  // producers block (backpressure) when the owning worker's ring is full.
  std::size_t queue_capacity = 1024;
  // Max packets a worker takes per ring pop / replica-lock hold.
  std::size_t batch_size = 32;
  // Keep every per-packet ProcessResult for drain(). Disable for pure
  // throughput runs; drain() then reports numeric totals only.
  bool collect_results = true;
  // Attach a profiling tracer (obs::PipelineTracer, events off) to every
  // worker replica: per-stage and per-table nanosecond histograms, merged
  // into metrics() by export_profile(). Costs two clock reads per stage per
  // packet on the worker hot path; off by default.
  bool profile = false;
  // Pin worker i to core i % hardware_concurrency (Linux; no-op elsewhere).
  bool pin_workers = false;
  bm::Switch::Options switch_options{};
};

struct InjectItem {
  std::uint16_t port = 0;
  net::Packet packet;
};

// MergedResult lives in reorder.h (the streaming merge produces it).

// Merge per-packet results (already in the desired order) into totals.
// Exposed for tests and for callers that collect results themselves.
MergedResult merge_results(std::vector<bm::ProcessResult> per_packet);

// An alternative per-worker packet path (tiered execution, src/vm). When a
// factory is installed, each worker builds one instance over its private
// replica and routes packets through it instead of Switch::inject(); the
// path reads the replica's live tables, so control-plane fan-outs apply to
// it unchanged. A path must match inject() observably (outputs + TM
// counters) for the engine's determinism contract to hold.
class PacketPath {
 public:
  virtual ~PacketPath() = default;
  virtual bm::ProcessResult process(std::uint16_t port,
                                    const net::Packet& packet) = 0;
  // Implementation-defined counters (tier hit/fallback counts, compile
  // stats, ...). Keys are stable identifiers; values are cumulative. The
  // engine sums these across workers in packet_path_diagnostics().
  virtual std::map<std::string, std::uint64_t> diagnostics() const {
    return {};
  }
};

using PacketPathFactory =
    std::function<std::unique_ptr<PacketPath>(bm::Switch&)>;

// Streaming link egress hand-off (src/fabric): called on the worker thread
// once per packet, right after processing, with the packet's injection
// sequence and its full result. A fabric node routes each output to a peer
// link or host endpoint as it completes, without waiting for drain(). The
// hook runs under the worker's replica lock and must not call back into
// this engine's control plane (deadlock); it must be thread-safe across
// workers.
using EgressHook =
    std::function<void(std::uint64_t seq, const bm::ProcessResult& result)>;

class TrafficEngine {
 public:
  explicit TrafficEngine(p4::Program prog, EngineOptions opts = {});
  ~TrafficEngine();

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  std::size_t workers() const { return workers_.size(); }
  const EngineOptions& options() const { return opts_; }
  // Read-only view of a worker's replica (diagnostics / tests). Do not use
  // while injection is in flight unless you hold no expectations about
  // intermediate state.
  const bm::Switch& replica(std::size_t i) const;

  // Generation counter: bumped once per control-plane fan-out.
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  // --- control plane (fans out to every replica, bumps epoch) -------------
  // Mirror full runtime state (tables, registers, meters, counters,
  // mcast/mirror config, clock, RNG) from a switch compiled from the same
  // program — e.g. one already configured by a native controller or DPMU.
  void sync_from(const bm::Switch& src);

  std::uint64_t table_add(const std::string& table, const std::string& action,
                          std::vector<bm::KeyParam> key,
                          std::vector<util::BitVec> action_args,
                          std::int32_t priority = -1);
  void table_set_default(const std::string& table, const std::string& action,
                         std::vector<util::BitVec> action_args = {});
  void table_modify(const std::string& table, const std::string& action,
                    std::uint64_t handle,
                    std::vector<util::BitVec> action_args);
  void table_delete(const std::string& table, std::uint64_t handle);
  void mirror_add(std::uint32_t session, std::uint16_t port);
  void mc_group_set(std::uint16_t group,
                    std::vector<std::pair<std::uint16_t, std::uint16_t>>
                        port_rid_pairs);
  void register_write(const std::string& reg, std::size_t index,
                      const util::BitVec& v);
  void set_time(double t);
  void advance_time(double dt);

  // Install (or, with nullptr, remove) an alternative packet path. Fans out
  // like a control op: every worker gets a fresh instance built over its
  // replica, swapped in between batches. The factory must be thread-safe to
  // call concurrently (one call per worker under that worker's replica
  // lock).
  void set_packet_path(PacketPathFactory factory);

  // Install (or, with nullptr, remove) the per-packet egress hand-off hook.
  // Fans out like a control op (all replica locks, one epoch bump), so the
  // swap lands between batches on every worker.
  void set_egress_hook(EgressHook hook);

  // Sum of every worker path's diagnostics() (empty map when no alternative
  // packet path is installed). Taken under each worker's replica lock, so
  // the read lands between batches — safe to call mid-run.
  std::map<std::string, std::uint64_t> packet_path_diagnostics() const;

  // Apply a batch of control operations as ONE fan-out: all replica locks
  // are taken, every op runs on every replica, and the epoch advances once
  // — a worker observes either none or all of the batch (transactional
  // propagation for src/state Txn commits). Ops must be deterministic
  // switch mutations; an op that throws aborts the batch mid-replica, so
  // callers needing all-or-nothing semantics validate on a source switch
  // first and use sync_from-style mirroring instead.
  void apply_atomic(const std::vector<std::function<void(bm::Switch&)>>& ops);

  // --- data plane ----------------------------------------------------------
  // Worker a packet would shard to (stable across runs and worker counts
  // modulo the worker count itself).
  std::size_t shard_of(const net::Packet& p) const {
    return static_cast<std::size_t>(flow_hash(p) % workers_.size());
  }

  // Enqueue one packet (moved through, no copy); blocks when the target
  // worker's ring is full. Returns the packet's injection sequence number.
  std::uint64_t inject(std::uint16_t port, net::Packet packet);
  // Enqueue a batch: flow-shards producer-side with per-shard staging (one
  // ring push per staged run, not per packet) and copies each packet into
  // an arena-recycled buffer — allocation-free at steady state. Concurrent
  // inject_batch calls serialize on an internal lock; interleave with
  // inject() freely.
  void inject_batch(std::span<const InjectItem> items);

  // Block until every packet enqueued so far has been processed, then
  // return (and clear) the merged results (streamed in injection-sequence
  // order; no end-of-wave sort).
  MergedResult drain();

  // Streaming consumption (collect_results only; throws ConfigError
  // otherwise): block until at least one not-yet-taken result is ready or
  // everything enqueued so far has been emitted, then return (and clear)
  // the ordered ready prefix — possibly empty when fully caught up. Lets a
  // caller overlap result processing with packet processing instead of
  // waiting for the whole wave.
  MergedResult collect_ready();

  // --- aggregate reads (sum across replicas) -------------------------------
  // Registers/meters are per-flow state and live in the flow's replica;
  // counters are additive, so the engine-wide value is the sum.
  std::uint64_t counter_packets_total(const std::string& counter,
                                      std::size_t index) const;
  std::uint64_t counter_bytes_total(const std::string& counter,
                                    std::size_t index) const;
  // Register state lives in the flow's replica, so an engine-wide read is
  // well-defined only with a single worker; throws ConfigError otherwise.
  // (The differential oracle pins workers=1 for stateful programs and uses
  // this to compare final register state against the native switch.)
  util::BitVec register_read(const std::string& reg, std::size_t index) const;
  bm::Switch::Stats stats_total() const;

  // Cumulative *CPU* time worker `i` has spent inside Switch::inject()
  // (per-thread clock, so co-scheduled workers on a small machine don't
  // bill each other) — the bottleneck-makespan measure the simulator's
  // throughput model uses.
  double busy_seconds(std::size_t i) const;
  double max_busy_seconds() const;
  void reset_busy();

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // With options().profile: merge every worker's per-stage / per-table
  // latency histograms into metrics() ("stage_ns_<stage>" and
  // "table_lookup_ns.<table>" histograms, nanosecond log2 buckets) and
  // reset the worker-side profiles so repeated exports don't double-count.
  // Safe to call mid-run: each worker's profile is read under its replica
  // lock, i.e. between batches. No-op when profiling is off.
  void export_profile();

 private:
  struct Job {
    std::uint64_t seq = 0;
    std::uint16_t port = 0;
    net::Packet packet;
  };

  struct Worker {
    std::size_t index = 0;
    std::unique_ptr<bm::Switch> sw;
    // Alternative packet path (set_packet_path); nullptr = Switch::inject.
    // Only touched under replica_mu, like the replica itself.
    std::unique_ptr<PacketPath> path;
    // Egress hand-off hook (set_egress_hook); shared across workers, the
    // per-worker copy is swapped under replica_mu like `path`.
    std::shared_ptr<const EgressHook> egress;
    // Profiling tracer attached to `sw` when EngineOptions::profile; its
    // histograms are only touched by the owning worker under replica_mu.
    std::unique_ptr<obs::PipelineTracer> tracer;
    // Shard hand-off. Its producer lock is uncontended in the
    // single-injector pattern; inject_batch takes it once per staged run,
    // not per packet.
    std::unique_ptr<MpscChannel<Job>> inbox;
    // Packet-buffer recycler (worker produces spent buffers, inject_batch
    // consumes them under inject_mu_).
    std::unique_ptr<PacketArena> arena;
    // inject_batch staging (guarded by inject_mu_): jobs accumulated for
    // this shard, flushed as one ring push.
    std::vector<Job> stage;
    // Held by the worker for one batch; by control fan-outs for one op.
    std::mutex replica_mu;
    // Numeric totals accumulated when collect_results is off (with
    // collect_results the reorder buffer owns all accounting).
    std::mutex results_mu;
    bm::ProcessResult totals;
    std::uint64_t packets = 0;  // guarded by results_mu
    std::atomic<std::uint64_t> busy_ns{0};
    std::thread th;
  };

  void worker_loop(Worker& w);
  void flush_stage(Worker& w);
  // Lock every replica in index order, run fn(switch) on each, bump epoch.
  template <typename Fn>
  void fan_out(Fn&& fn);

  EngineOptions opts_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::mutex control_mu_;
  // Serializes inject_batch callers (staging buffers + arena consumer side).
  std::mutex inject_mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::mutex drain_mu_;
  std::condition_variable drained_cv_;
  ReorderBuffer reorder_;

  MetricsRegistry metrics_;
  // Hot-path metric handles, resolved once.
  Counter* m_packets_ = nullptr;
  Counter* m_outputs_ = nullptr;
  Counter* m_drops_ = nullptr;
  Counter* m_resubmits_ = nullptr;
  Counter* m_recirculates_ = nullptr;
  Counter* m_parse_errors_ = nullptr;
  Counter* m_loop_kills_ = nullptr;
  Counter* m_batches_ = nullptr;
  Counter* m_backpressure_ = nullptr;
  Counter* m_consumer_waits_ = nullptr;
  Counter* m_merge_stall_ns_ = nullptr;
  Counter* m_drain_wait_ns_ = nullptr;
  Counter* m_arena_fresh_ = nullptr;
  Counter* m_control_ops_ = nullptr;
  Counter* m_txn_batches_ = nullptr;
  Histogram* h_latency_us_ = nullptr;
  Histogram* h_stages_ = nullptr;
};

}  // namespace hyper4::engine

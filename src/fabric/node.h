// One fabric member: a thread that owns an engine-backed switch replica
// plus its durable store, consuming an MPSC inbox of packets and
// replicated journal records (DESIGN.md "Fabric").
//
// A node never talks to its peers directly — every outward effect (acks,
// resend requests, host deliveries, link forwards) goes through a
// NodeCallbacks, so the same FabricNode runs in-process under a
// FabricController or behind a unix socket in a separate process
// (serve_node in fabric.h) without knowing which.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/metrics.h"
#include "engine/ring.h"
#include "hp4/persona.h"
#include "net/packet.h"
#include "state/store.h"

namespace hyper4::engine {
class TrafficEngine;
}

namespace hyper4::fabric {

struct PacketMsg {
  std::uint64_t seq = 0;   // fabric-wide injection sequence (controller's)
  std::uint16_t port = 0;  // ingress port on the receiving node
  std::uint32_t hops = 0;  // nodes traversed so far (loop guard)
  net::Packet packet;
};

struct Msg {
  enum class Kind : std::uint8_t { kStop = 0, kPacket = 1, kApply = 2 };
  Kind kind = Kind::kStop;
  PacketMsg pkt;          // kPacket
  state::Record rec;      // kApply
  std::uint64_t epoch = 0;
};

// How this node's ports are wired (shipped by the controller as kConfig on
// the socket transport, set directly in-process).
struct NodeWiring {
  struct LinkOut {
    std::uint32_t dst_node = 0;
    std::uint16_t dst_port = 0;
  };
  std::map<std::uint16_t, LinkOut> links;  // local port → peer
  std::map<std::uint16_t, std::string> hosts;  // local port → host name
};

class NodeCallbacks {
 public:
  virtual ~NodeCallbacks() = default;
  // Replication: record applied & journaled; `digest` is the post-apply
  // state digest (what quorum accounting compares across replicas).
  virtual void on_ack(std::uint32_t node, std::uint64_t lsn,
                      std::uint64_t digest) = 0;
  // Replication gap: this node's journal ends at from_lsn; reship the tail.
  virtual void on_resend(std::uint32_t node, std::uint64_t from_lsn) = 0;
  // A packet reached a host-facing port.
  virtual void on_deliver(std::uint32_t node, std::uint16_t port,
                          const std::string& host, PacketMsg&& pkt) = 0;
  // A packet left on a trunk port; route it to dst_node's inbox. May be
  // called from engine worker threads (engine mode) — must be thread-safe
  // and should avoid blocking on slow peers where possible.
  virtual void forward(std::uint32_t src_node, std::uint32_t dst_node,
                       PacketMsg&& pkt) = 0;
  // `packets` traversals finished at this node (inflight accounting; a
  // forwarded packet finishes at its last node).
  virtual void on_done(std::uint32_t node, std::uint32_t packets) = 0;
};

struct NodeOptions {
  std::string store_dir;
  hp4::PersonaConfig persona{};
  state::StoreOptions store{};
  // 0 = direct mode: the node thread itself runs Switch::inject for each
  // packet. N>0 = engine mode: packets go through a TrafficEngine with N
  // flow-sharded workers and outputs are routed from the egress hook.
  std::size_t engine_workers = 0;
  bool pin_workers = false;
  std::size_t inbox_capacity = 4096;
  std::size_t batch = 64;
  std::uint32_t max_hops = 64;  // fabric-level traversal guard
};

// Construction recovers the store (checkpoint + journal tail — the PR 5
// single-node path), which is exactly how a killed follower re-joins: the
// controller reads last_lsn() from the hello and ships the journal tail
// from there.
class FabricNode {
 public:
  FabricNode(std::uint32_t id, NodeOptions opts, NodeCallbacks* cb);
  ~FabricNode();

  FabricNode(const FabricNode&) = delete;
  FabricNode& operator=(const FabricNode&) = delete;

  std::uint32_t id() const { return id_; }

  // Safe while stopped or between waves; the node thread reads the wiring
  // through an atomic snapshot, so a swap lands between packets.
  void set_wiring(NodeWiring wiring);

  void start();
  // Close the inbox, drain it, join the thread. Idempotent.
  void stop();
  // Crash simulation: stop consuming NOW and drop the inbox backlog (stop()
  // drains it first, which a SIGKILLed process would not).
  void halt();

  // Blocking enqueue; false when the node is stopped.
  bool post(Msg&& m);

  std::uint64_t last_lsn() const { return store_->last_lsn(); }
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  // Quiescent state digest (takes the dataplane lock; call between waves).
  std::uint64_t digest();

  state::DurableController& store() { return *store_; }
  engine::MetricsRegistry& metrics() { return metrics_; }
  std::map<std::string, std::uint64_t> counters();
  // {"node":id,"lsn":..,"digest":"0x..","epoch":..,"metrics":{...}}
  std::string status_json();

  // Synchronous single-packet traversal for sim::Network delegation: runs
  // on the caller's thread under the dataplane lock, bypassing the inbox
  // and the engine (deliveries/forwards are the caller's to route).
  bm::ProcessResult process_sync(std::uint16_t port, const net::Packet& p);

 private:
  void run();
  void handle_apply(const Msg& m);
  void handle_packet(PacketMsg&& pkt);
  // Route one traversal's outputs: host ports deliver, trunk ports forward
  // (hop-limited), unwired ports drop. Thread-safe (engine egress hook).
  void route(std::uint64_t seq, std::uint32_t hops,
             const bm::ProcessResult& r);

  const std::uint32_t id_;
  const NodeOptions opts_;
  NodeCallbacks* const cb_;

  // dp_mu_ serializes every dataplane / store touch: the node thread
  // (applies + direct-mode packets), process_sync callers, and
  // digest()/status readers. Engine-mode packet processing happens on the
  // engine's own workers under its replica locks instead.
  std::mutex dp_mu_;
  std::unique_ptr<state::DurableController> store_;
  std::unique_ptr<engine::TrafficEngine> engine_;

  std::shared_ptr<const NodeWiring> wiring_;
  std::mutex wiring_mu_;  // guards the shared_ptr swap (readers copy it)

  // Engine mode: fabric metadata for in-flight engine packets, keyed by
  // engine injection seq. The node thread (sole injector) pre-assigns the
  // seq and inserts the entry *before* inject, so the egress hook always
  // finds it.
  struct Pending {
    std::uint64_t seq = 0;
    std::uint32_t hops = 0;
  };
  std::mutex pending_mu_;
  std::map<std::uint64_t, Pending> pending_;
  std::uint64_t engine_next_seq_ = 0;

  engine::MpscChannel<Msg> inbox_;
  std::thread th_;
  bool started_ = false;
  std::atomic<bool> halt_{false};
  std::atomic<std::uint64_t> epoch_{0};

  engine::MetricsRegistry metrics_;
  engine::Counter* m_packets_;
  engine::Counter* m_outputs_;
  engine::Counter* m_deliveries_;
  engine::Counter* m_forwards_;
  engine::Counter* m_drops_unwired_;
  engine::Counter* m_loop_kills_;
  engine::Counter* m_applied_;
  engine::Counter* m_duplicates_;
  engine::Counter* m_gaps_;
  engine::Counter* m_acks_;
};

}  // namespace hyper4::fabric

/*
 * hyper4.h — the stable C ABI of the HyPer4 virtualization layer.
 *
 * This is the embeddable service surface (DESIGN.md "Embeddable service
 * surface"): everything a production system needs to drive the data plane
 * as a black box — compile P4-14 source, create/configure/hot-swap/
 * snapshot/restore virtual devices, inject packet batches through the
 * concurrent traffic engine, and read metrics/diagnostics as JSON —
 * without linking any C++20 internals. The header compiles as C11; the
 * symbol set is pinned by tests/fixtures/abi_symbols.txt and the
 * conformance suite (tests/abi_conformance_test.cpp).
 *
 * Conventions:
 *   - Every function returns H4_OK (0) on success or a negative error
 *     code; h4_err_str() names any code, h4_last_error() carries the
 *     detailed message of the most recent failure on an instance.
 *   - All output buffers are caller-owned. Functions filling one take
 *     (buf, cap, required): on success they write at most cap bytes and
 *     set *required to the byte count (strings include the NUL); when cap
 *     is too small they write nothing, set *required, and return
 *     H4_ERR_NOSPACE — call again with a buffer of *required bytes.
 *   - Handles are opaque. A closed instance or an unloaded vdev id is
 *     STALE: every use returns H4_ERR_HANDLE (double-close included).
 *   - An instance is not thread-safe; confine it to one thread or lock
 *     externally. Distinct instances are independent.
 */
#ifndef HYPER4_HYPER4_H_
#define HYPER4_HYPER4_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define H4_API __attribute__((visibility("default")))

#define H4_VERSION_MAJOR 0
#define H4_VERSION_MINOR 9
#define H4_VERSION_PATCH 0

/* ---- error codes (negative; 0 is success) ------------------------------ */
#define H4_OK 0
#define H4_ERR_ARG (-1)       /* null pointer / out-of-range argument */
#define H4_ERR_HANDLE (-2)    /* null, stale or foreign handle */
#define H4_ERR_PARSE (-3)     /* P4-14 source failed to parse/compile */
#define H4_ERR_CONFIG (-4)    /* operation invalid for this configuration */
#define H4_ERR_COMMAND (-5)   /* runtime table/rule operation failed */
#define H4_ERR_ISOLATION (-6) /* DPMU rejected: authorization or quota */
#define H4_ERR_NOSPACE (-7)   /* caller buffer too small; *required set */
#define H4_ERR_STATE (-8)     /* durable store / journal / image failure */
#define H4_ERR_INTERNAL (-9)  /* unexpected internal failure */

/* ---- opaque handles ---------------------------------------------------- */
typedef struct h4_instance h4_instance;
/* Virtual-device id (the persona program id). 0 is never a valid vdev. */
typedef uint64_t h4_vdev;

/* ---- construction ------------------------------------------------------ */
typedef struct h4_options {
  uint32_t workers;        /* engine worker threads; 0 = 1 */
  uint32_t queue_capacity; /* per-worker ring capacity; 0 = default */
  uint32_t batch_size;     /* max packets per worker batch; 0 = default */
  int32_t pin_workers;     /* nonzero: pin worker i to core i (best effort) */
  int32_t use_mutex_queue; /* reserved, ignored (kept for layout/source) */
  int32_t vm_fast_path;    /* nonzero: per-worker VM bytecode tier */
  int32_t collect_results; /* nonzero: keep outputs for h4_drain_outputs */
  uint32_t persona_stages; /* emulated match-action stages; 0 = default */
  /* Non-NULL: durable instance rooted at this directory — every management
   * op is write-ahead journaled and h4_open() recovers an existing store
   * (checkpoint + journal tail). NULL: in-memory instance. */
  const char* durable_dir;
} h4_options;

/* Fill `opts` with defaults (1 worker, results collected, in-memory).
 * Always call this first; the struct may grow in minor versions. */
H4_API int h4_options_init(h4_options* opts);

/* Library version; any pointer may be NULL. Never fails. */
H4_API int h4_version(int32_t* major, int32_t* minor, int32_t* patch);

/* Static name for any error code ("H4_ERR_PARSE: ..."). Never NULL. */
H4_API const char* h4_err_str(int32_t err);

/* Create an instance: persona switch + DPMU + controller + traffic engine
 * (and, with durable_dir, the write-ahead-journaled store). */
H4_API int h4_open(const h4_options* opts, h4_instance** out);

/* Destroy an instance. The handle is stale afterwards: a second close (or
 * any other use) returns H4_ERR_HANDLE. */
H4_API int h4_close(h4_instance* inst);

/* Message of the most recent failing call on `inst` (empty string when no
 * call has failed yet). Buffer protocol as documented above. */
H4_API int h4_last_error(h4_instance* inst, char* buf, size_t cap,
                         size_t* required);

/* ---- programs ---------------------------------------------------------- */
/* Compile-check P4-14 source against this instance's persona envelope
 * without loading it. On success writes a one-line JSON summary
 * {"name":...,"tables":N,"commands":N}. H4_ERR_PARSE on bad source. */
H4_API int h4_compile(h4_instance* inst, const char* p4_source, char* buf,
                      size_t cap, size_t* required);

/* Compile `p4_source` and load it as virtual device `name` (must be unique
 * among loaded devices). */
H4_API int h4_vdev_load(h4_instance* inst, const char* name,
                        const char* p4_source, h4_vdev* out);

/* Unload a device: drops its persona entries, vports and ingress bindings.
 * The id is stale afterwards (H4_ERR_HANDLE on reuse). */
H4_API int h4_vdev_unload(h4_instance* inst, h4_vdev vdev);

/* Allot vports for the given physical ports (egress defaults to the
 * physical port itself). */
H4_API int h4_vdev_attach_ports(h4_instance* inst, h4_vdev vdev,
                                const uint16_t* ports, size_t nports);

/* Bind traffic entering `port` to the device; port -1 binds all ports. */
H4_API int h4_vdev_bind(h4_instance* inst, h4_vdev vdev, int32_t port);

/* Compose devices in sequence over `ports`: every non-final device's
 * vports are retargeted at the next device; the final device emits
 * physically; ingress is bound to the first device. */
H4_API int h4_chain(h4_instance* inst, const h4_vdev* devs, size_t ndevs,
                    const uint16_t* ports, size_t nports);

/* Install one rule in the device's own table namespace. Keys/args use the
 * target program's CLI value syntax (e.g. "10.0.0.0/8", "0x0800").
 * `priority` is -1 for non-ternary tables. Returns the virtual handle. */
H4_API int h4_rule_add(h4_instance* inst, h4_vdev vdev, const char* table,
                       const char* action, const char* const* keys,
                       size_t nkeys, const char* const* args, size_t nargs,
                       int32_t priority, uint64_t* handle_out);

H4_API int h4_rule_delete(h4_instance* inst, h4_vdev vdev, uint64_t handle);

/* Atomically replace the program behind `vdev` with newly compiled
 * `p4_source`: the new device inherits the old one's attached ports and
 * ingress bindings (made through this ABI) inside ONE engine epoch — a
 * worker never observes the half-swapped state — then the old device is
 * unloaded and its id goes stale. Rules are NOT carried over (the new
 * program's tables may differ); re-add them, and re-issue h4_chain for
 * chained topologies. On a durable instance the swap is one transaction. */
H4_API int h4_vdev_hot_swap(h4_instance* inst, h4_vdev vdev,
                            const char* p4_source, h4_vdev* out);

/* ---- snapshot / restore ------------------------------------------------ */
/* Serialize the instance's full control-plane state (programs as P4-14
 * source, every table entry, registers, bindings, configs) into a
 * versioned binary image. Buffer protocol. */
H4_API int h4_snapshot(h4_instance* inst, void* buf, size_t cap,
                       size_t* required);

/* Wholesale-replace state from an image taken on an instance with the same
 * persona geometry. Vdev ids from snapshot time are valid again; ids
 * created after the snapshot go stale. In-memory instances only — a
 * durable instance recovers from its checkpoint + journal instead
 * (H4_ERR_CONFIG). */
H4_API int h4_restore(h4_instance* inst, const void* buf, size_t len);

/* 64-bit control-plane state digest (FNV-1a over the canonical state
 * serialization). Equal digests = the two control planes install
 * byte-identical match state. */
H4_API int h4_state_digest(h4_instance* inst, uint64_t* out);

/* ---- durable store (durable instances only; H4_ERR_CONFIG otherwise) --- */
/* Write a checkpoint image and truncate the journal; returns covered LSN. */
H4_API int h4_checkpoint(h4_instance* inst, uint64_t* lsn_out);

/* Human-readable report of what h4_open()'s recovery found and did
 * (checkpoint loaded, records replayed, bytes dropped, digest checks). */
H4_API int h4_recovery_report(h4_instance* inst, char* buf, size_t cap,
                              size_t* required);

/* ---- data plane -------------------------------------------------------- */
typedef struct h4_packet {
  uint16_t port;       /* ingress physical port */
  const uint8_t* data; /* raw packet bytes (caller-owned) */
  size_t len;
} h4_packet;

/* Flow-shard and enqueue a batch onto the engine workers. Bytes are copied
 * into arena-recycled buffers before return; at steady state this path
 * performs the same number of heap allocations as the native C++
 * inject_batch — zero (gated by tests/abi_overhead_test.cpp). */
H4_API int h4_inject_batch(h4_instance* inst, const h4_packet* pkts,
                           size_t n);

typedef struct h4_drain_stats {
  uint64_t packets;      /* packets processed by this drain */
  uint64_t outputs;      /* packets emitted on physical ports */
  uint64_t drops;
  uint64_t parse_errors;
  uint64_t resubmits;
  uint64_t recirculations;
  uint64_t epoch;        /* control-plane generation at drain time */
} h4_drain_stats;

/* Block until every injected packet is processed; fill `stats` (may be
 * NULL). With collect_results, the per-packet outputs are retained (in
 * injection order, appended across drains) until h4_drain_outputs takes
 * them. */
H4_API int h4_drain(h4_instance* inst, h4_drain_stats* stats);

typedef struct h4_output {
  uint16_t port;   /* egress physical port */
  uint32_t offset; /* byte offset into the `bytes` buffer */
  uint32_t len;
} h4_output;

/* Take the retained output packets: descriptors into `outs`, packet bytes
 * concatenated into `bytes`. Two-buffer protocol: when either buffer is
 * too small nothing is consumed, *nout and *nbytes are set to the required
 * counts and H4_ERR_NOSPACE is returned. On success the retained set is
 * cleared. H4_ERR_CONFIG when the instance was opened with
 * collect_results = 0. */
H4_API int h4_drain_outputs(h4_instance* inst, h4_output* outs,
                            size_t outs_cap, uint8_t* bytes,
                            size_t bytes_cap, size_t* nout, size_t* nbytes);

/* ---- observability ----------------------------------------------------- */
/* Engine MetricsRegistry snapshot as JSON: {"counters":{...},
 * "histograms":{name:{"buckets":[{"le":..,"count":..}...],...}}}. */
H4_API int h4_metrics_json(h4_instance* inst, char* buf, size_t cap,
                           size_t* required);

/* Engine/tier diagnostics as JSON: {"workers":N,"epoch":E,
 * "packet_path":{...}} where packet_path carries the VM tier's cumulative
 * counters (packets_bytecode, packets_fallback, per-reason "fallback.*",
 * compiles, recompiles) and is empty without vm_fast_path. */
H4_API int h4_diagnostics_json(h4_instance* inst, char* buf, size_t cap,
                               size_t* required);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* HYPER4_HYPER4_H_ */

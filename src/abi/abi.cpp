// Implementation of the stable C ABI (include/hyper4/hyper4.h).
//
// This is a thin shim: every h4_* call validates its handle against a
// process-wide live-instance registry (so stale/double-destroyed handles
// fail with H4_ERR_HANDLE instead of corrupting memory), translates C
// arguments into the C++ subsystem calls (hp4::Controller /
// state::DurableController / engine::TrafficEngine / vm fast path), and
// maps the util::Error hierarchy onto the negative error codes. No
// internal type crosses the header boundary.
//
// Allocation discipline: h4_inject_batch reuses a persistent staging
// vector whose net::Packet buffers absorb caller bytes via assign()
// (capacity-reusing), so at steady state the ABI inject path performs
// exactly the allocations of the native inject_batch path — zero
// (tests/abi_overhead_test.cpp gates this).
#include "hyper4/hyper4.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "hp4/controller.h"
#include "hp4/p4_emit.h"
#include "p4/frontend.h"
#include "state/checkpoint.h"
#include "state/digest.h"
#include "state/store.h"
#include "util/error.h"
#include "vm/vm.h"

namespace {

namespace hp4 = hyper4::hp4;
namespace engine = hyper4::engine;
namespace state = hyper4::state;
namespace p4 = hyper4::p4;
namespace util = hyper4::util;

// Per-vdev configuration made through this ABI — what a hot swap carries
// over to the replacement device (attached ports and ingress bindings;
// rules and chains are the caller's to re-establish).
struct VdevInfo {
  std::string base_name;  // caller-given name, without hot-swap salt
  std::vector<std::uint16_t> ports;
  std::set<std::int32_t> bound;  // -1 = all-ports binding
};

}  // namespace

struct h4_instance {
  // Exactly one of plain/durable is set.
  std::unique_ptr<hp4::Controller> plain;
  std::unique_ptr<state::DurableController> durable;
  std::unique_ptr<engine::TrafficEngine> eng;
  hp4::PersonaConfig cfg;
  bool collect_results = true;

  std::map<h4_vdev, VdevInfo> vdevs;
  // Target P4 source per vdev (plain mode; durable tracks its own — this
  // is what snapshots persist so restore can recompile).
  std::map<hp4::VdevId, std::string> sources;
  std::uint64_t name_salt = 0;

  std::string last_error;

  // inject staging: reused across calls, buffers keep their capacity.
  std::vector<engine::InjectItem> stage;
  // Drained-but-not-taken outputs (collect_results only).
  std::vector<std::pair<std::uint16_t, std::vector<std::uint8_t>>> pending;
  std::size_t pending_bytes = 0;

  hp4::Controller& ctl() { return durable ? durable->controller() : *plain; }
  const std::map<hp4::VdevId, std::string>& source_map() const {
    return durable ? durable->vdev_sources() : sources;
  }
};

namespace {

std::mutex g_mu;
std::set<h4_instance*>& live() {
  static std::set<h4_instance*> s;
  return s;
}

bool is_live(h4_instance* inst) {
  std::lock_guard<std::mutex> lk(g_mu);
  return inst != nullptr && live().count(inst) > 0;
}

int fail(h4_instance* inst, int code, const std::string& msg) {
  if (inst != nullptr) inst->last_error = msg;
  return code;
}

// Map a thrown util::Error (or anything else) onto an ABI error code.
int fail_exception(h4_instance* inst) {
  try {
    throw;
  } catch (const util::ParseError& e) {
    return fail(inst, H4_ERR_PARSE, e.what());
  } catch (const util::IsolationError& e) {
    return fail(inst, H4_ERR_ISOLATION, e.what());
  } catch (const util::CommandError& e) {
    return fail(inst, H4_ERR_COMMAND, e.what());
  } catch (const util::ConfigError& e) {
    return fail(inst, H4_ERR_CONFIG, e.what());
  } catch (const util::Error& e) {
    return fail(inst, H4_ERR_STATE, e.what());
  } catch (const std::exception& e) {
    return fail(inst, H4_ERR_INTERNAL, e.what());
  } catch (...) {
    return fail(inst, H4_ERR_INTERNAL, "unknown error");
  }
}

// Caller-owned string buffer protocol: *required includes the NUL.
int copy_out_str(h4_instance* inst, const std::string& s, char* buf,
                 size_t cap, size_t* required) {
  if (required == nullptr || (buf == nullptr && cap > 0))
    return fail(inst, H4_ERR_ARG, "null buffer/required pointer");
  *required = s.size() + 1;
  if (cap < s.size() + 1)
    return fail(inst, H4_ERR_NOSPACE, "buffer too small");
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  return H4_OK;
}

// Binary variant: *required is the exact byte count, no NUL.
int copy_out_bytes(h4_instance* inst, const std::string& s, void* buf,
                   size_t cap, size_t* required) {
  if (required == nullptr || (buf == nullptr && cap > 0))
    return fail(inst, H4_ERR_ARG, "null buffer/required pointer");
  *required = s.size();
  if (cap < s.size()) return fail(inst, H4_ERR_NOSPACE, "buffer too small");
  std::memcpy(buf, s.data(), s.size());
  return H4_OK;
}

int check_vdev(h4_instance* inst, h4_vdev vdev) {
  if (vdev == 0 || inst->vdevs.count(vdev) == 0)
    return fail(inst, H4_ERR_HANDLE,
                "unknown or stale vdev id " + std::to_string(vdev));
  return H4_OK;
}

// Load `source` as `name` through whichever controller flavor is active;
// records bookkeeping. Throws util::Error on failure.
h4_vdev do_load(h4_instance* inst, const std::string& name,
                const std::string& source, const std::string& base_name) {
  h4_vdev id = 0;
  if (inst->durable) {
    id = inst->durable->load_source(name, source);
  } else {
    const p4::Program prog = p4::parse_p4(source, name);
    id = inst->plain->load(name, prog);
    // Persist the re-emitted source (what a durable store would journal),
    // so a restore recompiles the identical text.
    inst->sources[id] = hp4::emit_p4(prog);
  }
  inst->vdevs[id] = VdevInfo{base_name, {}, {}};
  return id;
}

void do_unload(h4_instance* inst, h4_vdev vdev) {
  if (inst->durable) {
    inst->durable->unload(vdev);
  } else {
    inst->plain->unload(vdev);
    inst->sources.erase(vdev);
  }
  inst->vdevs.erase(vdev);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

extern "C" {

int h4_options_init(h4_options* opts) {
  if (opts == nullptr) return H4_ERR_ARG;
  *opts = h4_options{};
  opts->workers = 1;
  opts->collect_results = 1;
  return H4_OK;
}

int h4_version(int32_t* major, int32_t* minor, int32_t* patch) {
  if (major != nullptr) *major = H4_VERSION_MAJOR;
  if (minor != nullptr) *minor = H4_VERSION_MINOR;
  if (patch != nullptr) *patch = H4_VERSION_PATCH;
  return H4_OK;
}

const char* h4_err_str(int32_t err) {
  switch (err) {
    case H4_OK:
      return "H4_OK: success";
    case H4_ERR_ARG:
      return "H4_ERR_ARG: null pointer or out-of-range argument";
    case H4_ERR_HANDLE:
      return "H4_ERR_HANDLE: null, stale or foreign handle";
    case H4_ERR_PARSE:
      return "H4_ERR_PARSE: P4-14 source failed to parse or compile";
    case H4_ERR_CONFIG:
      return "H4_ERR_CONFIG: operation invalid for this configuration";
    case H4_ERR_COMMAND:
      return "H4_ERR_COMMAND: runtime table/rule operation failed";
    case H4_ERR_ISOLATION:
      return "H4_ERR_ISOLATION: rejected by the DPMU (authorization/quota)";
    case H4_ERR_NOSPACE:
      return "H4_ERR_NOSPACE: caller buffer too small (see *required)";
    case H4_ERR_STATE:
      return "H4_ERR_STATE: durable store, journal or image failure";
    case H4_ERR_INTERNAL:
      return "H4_ERR_INTERNAL: unexpected internal failure";
    default:
      return "unknown hyper4 error code";
  }
}

int h4_open(const h4_options* opts, h4_instance** out) {
  if (opts == nullptr || out == nullptr) return H4_ERR_ARG;
  *out = nullptr;
  auto inst = std::make_unique<h4_instance>();
  try {
    inst->cfg = hp4::PersonaConfig{};
    if (opts->persona_stages != 0) inst->cfg.num_stages = opts->persona_stages;
    if (opts->durable_dir != nullptr && opts->durable_dir[0] != '\0') {
      inst->durable = std::make_unique<state::DurableController>(
          opts->durable_dir, inst->cfg);
    } else {
      inst->plain = std::make_unique<hp4::Controller>(inst->cfg);
    }
    engine::EngineOptions eo;
    eo.workers = opts->workers == 0 ? 1 : opts->workers;
    if (opts->queue_capacity != 0) eo.queue_capacity = opts->queue_capacity;
    if (opts->batch_size != 0) eo.batch_size = opts->batch_size;
    eo.collect_results = opts->collect_results != 0;
    eo.pin_workers = opts->pin_workers != 0;
    inst->collect_results = eo.collect_results;
    inst->eng = std::make_unique<engine::TrafficEngine>(
        inst->ctl().dataplane().program(), eo);
    inst->ctl().attach_engine(inst->eng.get());
    if (opts->vm_fast_path != 0)
      inst->eng->set_packet_path(hyper4::vm::engine_fast_path(inst->cfg));
    // A recovered durable store already carries vdevs: rebuild the
    // bookkeeping from the DPMU (bindings are not re-tracked; hot-swaps of
    // recovered vdevs re-bind explicitly).
    for (hp4::VdevId id : inst->ctl().dpmu().vdev_ids()) {
      VdevInfo info;
      info.base_name = inst->ctl().dpmu().vdev_name(id);
      if (auto pos = info.base_name.find('#'); pos != std::string::npos)
        info.base_name.resize(pos);
      for (const auto& [phys, vport] : inst->ctl().dpmu().ports(id).phys_to_vport)
        info.ports.push_back(phys);
      inst->vdevs[id] = std::move(info);
    }
  } catch (...) {
    return fail_exception(nullptr);
  }
  {
    std::lock_guard<std::mutex> lk(g_mu);
    live().insert(inst.get());
  }
  *out = inst.release();
  return H4_OK;
}

int h4_close(h4_instance* inst) {
  {
    std::lock_guard<std::mutex> lk(g_mu);
    if (inst == nullptr || live().erase(inst) == 0) return H4_ERR_HANDLE;
  }
  try {
    inst->ctl().attach_engine(nullptr);
  } catch (...) {
    // fall through to delete — never leak on teardown
  }
  delete inst;
  return H4_OK;
}

int h4_last_error(h4_instance* inst, char* buf, size_t cap,
                  size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  return copy_out_str(nullptr, inst->last_error, buf, cap, required);
}

int h4_compile(h4_instance* inst, const char* p4_source, char* buf,
               size_t cap, size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (p4_source == nullptr)
    return fail(inst, H4_ERR_ARG, "null p4_source");
  try {
    const p4::Program prog = p4::parse_p4(p4_source, "h4_compile");
    const hp4::Hp4Artifact art = inst->ctl().compile(prog);
    std::ostringstream os;
    os << "{\"name\":\"" << json_escape(art.program_name)
       << "\",\"tables\":" << art.tables.size()
       << ",\"commands\":" << art.static_commands.size() << "}";
    return copy_out_str(inst, os.str(), buf, cap, required);
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_vdev_load(h4_instance* inst, const char* name, const char* p4_source,
                 h4_vdev* out) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (name == nullptr || name[0] == '\0' || p4_source == nullptr ||
      out == nullptr)
    return fail(inst, H4_ERR_ARG, "null name/p4_source/out");
  for (const auto& [id, info] : inst->vdevs)
    if (info.base_name == name)
      return fail(inst, H4_ERR_CONFIG,
                  "vdev name already loaded: " + std::string(name));
  try {
    *out = do_load(inst, name, p4_source, name);
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_vdev_unload(h4_instance* inst, h4_vdev vdev) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  try {
    do_unload(inst, vdev);
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_vdev_attach_ports(h4_instance* inst, h4_vdev vdev,
                         const uint16_t* ports, size_t nports) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  if (nports == 0 || ports == nullptr)
    return fail(inst, H4_ERR_ARG, "empty port list");
  try {
    const std::vector<std::uint16_t> pv(ports, ports + nports);
    if (inst->durable) {
      inst->durable->attach_ports(vdev, pv);
    } else {
      inst->plain->attach_ports(vdev, pv);
    }
    VdevInfo& info = inst->vdevs.at(vdev);
    for (std::uint16_t p : pv)
      if (std::find(info.ports.begin(), info.ports.end(), p) ==
          info.ports.end())
        info.ports.push_back(p);
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_vdev_bind(h4_instance* inst, h4_vdev vdev, int32_t port) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  if (port < -1 || port > 0xffff)
    return fail(inst, H4_ERR_ARG, "port out of range");
  try {
    const std::optional<std::uint16_t> p =
        port < 0 ? std::nullopt
                 : std::optional<std::uint16_t>(
                       static_cast<std::uint16_t>(port));
    if (inst->durable) {
      inst->durable->bind(vdev, p);
    } else {
      inst->plain->bind(vdev, p);
    }
    // A port has one binding: moving it to this vdev removes it from any
    // other vdev's bookkeeping.
    for (auto& [id, info] : inst->vdevs) info.bound.erase(port);
    inst->vdevs.at(vdev).bound.insert(port);
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_chain(h4_instance* inst, const h4_vdev* devs, size_t ndevs,
             const uint16_t* ports, size_t nports) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (devs == nullptr || ndevs == 0 || ports == nullptr || nports == 0)
    return fail(inst, H4_ERR_ARG, "empty device/port list");
  for (size_t i = 0; i < ndevs; ++i)
    if (int rc = check_vdev(inst, devs[i]); rc != H4_OK) return rc;
  try {
    const std::vector<hp4::VdevId> dv(devs, devs + ndevs);
    const std::vector<std::uint16_t> pv(ports, ports + nports);
    if (inst->durable) {
      inst->durable->chain(dv, pv);
    } else {
      inst->plain->chain(dv, pv);
    }
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_rule_add(h4_instance* inst, h4_vdev vdev, const char* table,
                const char* action, const char* const* keys, size_t nkeys,
                const char* const* args, size_t nargs, int32_t priority,
                uint64_t* handle_out) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  if (table == nullptr || action == nullptr || handle_out == nullptr ||
      (nkeys > 0 && keys == nullptr) || (nargs > 0 && args == nullptr))
    return fail(inst, H4_ERR_ARG, "null table/action/keys/args/handle_out");
  try {
    hp4::VirtualRule rule;
    rule.table = table;
    rule.action = action;
    for (size_t i = 0; i < nkeys; ++i) {
      if (keys[i] == nullptr)
        return fail(inst, H4_ERR_ARG, "null key string");
      rule.keys.emplace_back(keys[i]);
    }
    for (size_t i = 0; i < nargs; ++i) {
      if (args[i] == nullptr)
        return fail(inst, H4_ERR_ARG, "null arg string");
      rule.args.emplace_back(args[i]);
    }
    rule.priority = priority;
    *handle_out = inst->durable ? inst->durable->add_rule(vdev, rule)
                                : inst->plain->add_rule(vdev, rule);
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_rule_delete(h4_instance* inst, h4_vdev vdev, uint64_t handle) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  try {
    if (inst->durable) {
      inst->durable->delete_rule(vdev, handle);
    } else {
      inst->plain->delete_rule(vdev, handle);
    }
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_vdev_hot_swap(h4_instance* inst, h4_vdev vdev, const char* p4_source,
                     h4_vdev* out) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (int rc = check_vdev(inst, vdev); rc != H4_OK) return rc;
  if (p4_source == nullptr || out == nullptr)
    return fail(inst, H4_ERR_ARG, "null p4_source/out");
  const VdevInfo info = inst->vdevs.at(vdev);  // copy: survives the swap
  const std::string new_name =
      info.base_name + "#" + std::to_string(++inst->name_salt);
  const bool durable = inst->durable != nullptr;
  if (durable) {
    inst->durable->txn_begin();
  } else {
    inst->plain->suspend_engine_refresh();
  }
  h4_vdev nid = 0;
  try {
    nid = do_load(inst, new_name, p4_source, info.base_name);
    if (!info.ports.empty()) {
      if (durable) {
        inst->durable->attach_ports(nid, info.ports);
      } else {
        inst->plain->attach_ports(nid, info.ports);
      }
      inst->vdevs.at(nid).ports = info.ports;
    }
    for (std::int32_t port : info.bound) {
      const std::optional<std::uint16_t> p =
          port < 0 ? std::nullopt
                   : std::optional<std::uint16_t>(
                         static_cast<std::uint16_t>(port));
      if (durable) {
        inst->durable->bind(nid, p);
      } else {
        inst->plain->bind(nid, p);
      }
    }
    inst->vdevs.at(nid).bound = info.bound;
    do_unload(inst, vdev);
    if (durable) {
      inst->durable->txn_commit();
    } else {
      inst->plain->resume_engine_refresh();
    }
    *out = nid;
    return H4_OK;
  } catch (...) {
    // Roll back: the durable txn restores the pre-swap image; the plain
    // path may have partially applied — unload the half-loaded device.
    if (durable) {
      try {
        inst->durable->txn_abort();
      } catch (...) {
      }
      // txn_abort restored controller state; drop bookkeeping of anything
      // loaded inside the transaction and resurrect the old device's.
      if (nid != 0) inst->vdevs.erase(nid);
      if (inst->ctl().dpmu().has_vdev(vdev)) inst->vdevs[vdev] = info;
    } else {
      if (nid != 0 && inst->ctl().dpmu().has_vdev(nid)) {
        try {
          do_unload(inst, nid);
        } catch (...) {
          inst->vdevs.erase(nid);
        }
      }
      inst->plain->resume_engine_refresh();
    }
    return fail_exception(inst);
  }
}

int h4_snapshot(h4_instance* inst, void* buf, size_t cap, size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  try {
    const std::uint64_t lsn = inst->durable ? inst->durable->last_lsn() : 0;
    const std::string body =
        state::serialize_state(inst->ctl(), inst->source_map(), lsn);
    return copy_out_bytes(inst, body, buf, cap, required);
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_restore(h4_instance* inst, const void* buf, size_t len) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (buf == nullptr || len == 0)
    return fail(inst, H4_ERR_ARG, "null/empty image");
  if (inst->durable)
    return fail(inst, H4_ERR_CONFIG,
                "h4_restore requires an in-memory instance; a durable store "
                "recovers from its checkpoint + journal");
  try {
    const std::string body(static_cast<const char*>(buf), len);
    const state::CheckpointImage img = state::apply_state(body, *inst->plain);
    inst->sources = img.vdev_sources;
    // Rebuild vdev bookkeeping from the restored DPMU; ABI-made bindings
    // are not re-tracked (hot-swaps after a restore re-bind explicitly).
    inst->vdevs.clear();
    for (hp4::VdevId id : inst->ctl().dpmu().vdev_ids()) {
      VdevInfo info;
      info.base_name = inst->ctl().dpmu().vdev_name(id);
      if (auto pos = info.base_name.find('#'); pos != std::string::npos)
        info.base_name.resize(pos);
      for (const auto& [phys, vport] :
           inst->ctl().dpmu().ports(id).phys_to_vport)
        info.ports.push_back(phys);
      inst->vdevs[id] = std::move(info);
    }
    return H4_OK;
  } catch (const util::Error& e) {
    // Any image failure — format, version, embedded source — is a state
    // error here; H4_ERR_PARSE is reserved for caller-supplied P4 source.
    return fail(inst, H4_ERR_STATE, e.what());
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_state_digest(h4_instance* inst, uint64_t* out) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (out == nullptr) return fail(inst, H4_ERR_ARG, "null out");
  try {
    *out = state::state_digest(inst->ctl());
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_checkpoint(h4_instance* inst, uint64_t* lsn_out) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (lsn_out == nullptr) return fail(inst, H4_ERR_ARG, "null lsn_out");
  if (!inst->durable)
    return fail(inst, H4_ERR_CONFIG,
                "h4_checkpoint requires a durable instance");
  try {
    *lsn_out = inst->durable->checkpoint();
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_recovery_report(h4_instance* inst, char* buf, size_t cap,
                       size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (!inst->durable)
    return fail(inst, H4_ERR_CONFIG,
                "h4_recovery_report requires a durable instance");
  try {
    std::string rep = inst->durable->recovery().str();
    rep += "state digest: " + state::digest_hex(inst->durable->digest()) +
           "\n";
    return copy_out_str(inst, rep, buf, cap, required);
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_inject_batch(h4_instance* inst, const h4_packet* pkts, size_t n) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (n == 0) return H4_OK;
  if (pkts == nullptr) return fail(inst, H4_ERR_ARG, "null packet array");
  try {
    if (inst->stage.size() < n) inst->stage.resize(n);  // warm-up growth
    for (size_t i = 0; i < n; ++i) {
      if (pkts[i].data == nullptr && pkts[i].len > 0)
        return fail(inst, H4_ERR_ARG, "null packet data");
      inst->stage[i].port = pkts[i].port;
      inst->stage[i].packet.assign(
          std::span<const std::uint8_t>(pkts[i].data, pkts[i].len));
    }
    inst->eng->inject_batch(
        std::span<const engine::InjectItem>(inst->stage.data(), n));
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_drain(h4_instance* inst, h4_drain_stats* stats) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  try {
    engine::MergedResult merged = inst->eng->drain();
    if (stats != nullptr) {
      *stats = h4_drain_stats{};
      stats->packets = merged.packets;
      stats->outputs = merged.totals.outputs.size();
      stats->drops = merged.totals.drops;
      stats->parse_errors = merged.totals.parse_errors;
      stats->resubmits = merged.totals.resubmits;
      stats->recirculations = merged.totals.recirculations;
      stats->epoch = inst->eng->epoch();
    }
    if (inst->collect_results) {
      for (const auto& out : merged.totals.outputs) {
        const auto span = out.packet.bytes();
        inst->pending.emplace_back(
            out.port, std::vector<std::uint8_t>(span.begin(), span.end()));
        inst->pending_bytes += span.size();
      }
    }
    return H4_OK;
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_drain_outputs(h4_instance* inst, h4_output* outs, size_t outs_cap,
                     uint8_t* bytes, size_t bytes_cap, size_t* nout,
                     size_t* nbytes) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  if (nout == nullptr || nbytes == nullptr)
    return fail(inst, H4_ERR_ARG, "null nout/nbytes");
  if (!inst->collect_results)
    return fail(inst, H4_ERR_CONFIG,
                "instance opened with collect_results = 0");
  *nout = inst->pending.size();
  *nbytes = inst->pending_bytes;
  if (outs_cap < inst->pending.size() || bytes_cap < inst->pending_bytes)
    return fail(inst, H4_ERR_NOSPACE, "output buffers too small");
  if ((outs == nullptr && inst->pending.size() > 0) ||
      (bytes == nullptr && inst->pending_bytes > 0))
    return fail(inst, H4_ERR_ARG, "null output buffers");
  std::size_t off = 0;
  for (std::size_t i = 0; i < inst->pending.size(); ++i) {
    const auto& [port, data] = inst->pending[i];
    outs[i].port = port;
    outs[i].offset = static_cast<uint32_t>(off);
    outs[i].len = static_cast<uint32_t>(data.size());
    if (!data.empty()) std::memcpy(bytes + off, data.data(), data.size());
    off += data.size();
  }
  inst->pending.clear();
  inst->pending_bytes = 0;
  return H4_OK;
}

int h4_metrics_json(h4_instance* inst, char* buf, size_t cap,
                    size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  try {
    return copy_out_str(inst, inst->eng->metrics().to_json(), buf, cap,
                        required);
  } catch (...) {
    return fail_exception(inst);
  }
}

int h4_diagnostics_json(h4_instance* inst, char* buf, size_t cap,
                        size_t* required) {
  if (!is_live(inst)) return H4_ERR_HANDLE;
  try {
    std::ostringstream os;
    os << "{\"workers\":" << inst->eng->workers()
       << ",\"epoch\":" << inst->eng->epoch() << ",\"packet_path\":{";
    bool first = true;
    for (const auto& [k, v] : inst->eng->packet_path_diagnostics()) {
      if (!first) os << ",";
      first = false;
      os << "\"" << json_escape(k) << "\":" << v;
    }
    os << "}}";
    return copy_out_str(inst, os.str(), buf, cap, required);
  } catch (...) {
    return fail_exception(inst);
  }
}

}  // extern "C"

// Shared replica-fleet plumbing for the fleet tools (compreg_server and
// compreg_loadgen, in both its daemon and --direct modes):
//
//   * the --kind flag parser (the flag reader itself, shared with
//     compreg_verify, lives in verify_common.h);
//   * the `--replica` child mode (a spawned tool re-executes itself as a
//     replica event loop);
//   * Fleet, a wrapper around the Supervisor that spawns 2f+1 replicas
//     and parses the shared audit.log;
//   * the kill-9 cycle loop and the durability audit that judges it;
//   * the fleet-epoch timestamp helpers that let child processes agree
//     with the harness on one monotonic time origin.
#pragma once

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/backoff.h"
#include "net/net_plan.h"
#include "net/real/replica.h"
#include "net/real/supervisor.h"
#include "net/real/transport.h"
#include "verify_common.h"

namespace compreg::tools {

using SteadyPoint = std::chrono::steady_clock::time_point;

inline constexpr char kSelfExe[] = "/proc/self/exe";

inline std::uint64_t mix_seed(std::uint64_t base, int node) {
  return base ^ (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(node + 1));
}

inline SteadyPoint epoch_from_ns(std::int64_t ns) {
  return SteadyPoint(std::chrono::duration_cast<SteadyPoint::duration>(
      std::chrono::nanoseconds(ns)));
}

inline std::int64_t epoch_to_ns(SteadyPoint epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             epoch.time_since_epoch())
      .count();
}

// The q-quantile (nearest rank below) of nanosecond latencies, in
// microseconds. Sorts `ns` in place.
inline double percentile_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(ns.size() - 1));
  return static_cast<double>(ns[idx]) / 1000.0;
}

// ---------------------------------------------------------------------------
// Flag parsing

inline const char* kind_name(net::real::TransportKind kind) {
  return kind == net::real::TransportKind::kTcp ? "tcp" : "uds";
}

inline net::real::TransportKind parse_kind(const char* flag,
                                           const char* value) {
  if (!std::strcmp(value, "uds")) return net::real::TransportKind::kUds;
  if (!std::strcmp(value, "tcp")) return net::real::TransportKind::kTcp;
  bad_flag(flag, value);
}

// ---------------------------------------------------------------------------
// Replica child mode: `<tool> --replica --node N ...`
//
// Every fleet tool supports the same child flags, so a supervisor can
// spawn any of them as a replica. argv[1] is "--replica"; parsing starts
// at argv[2].

inline int run_replica_child(int argc, char** argv) {
  net::real::ReplicaConfig cfg;
  std::string plan_text;
  std::int64_t epoch_ns = 0;
  FlagReader args(argc, argv, 2);
  while (args.next()) {
    if (args.is("--node")) {
      cfg.transport.self = args.number<int>();
    } else if (args.is("--f")) {
      cfg.f = args.number<int>();
    } else if (args.is("--dir")) {
      cfg.data_dir = args.value();
    } else if (args.is("--kind")) {
      cfg.transport.kind = args.value(parse_kind);
    } else if (args.is("--base-port")) {
      cfg.transport.base_port = args.number<std::uint16_t>();
    } else if (args.is("--epoch-ns")) {
      epoch_ns = args.number<std::int64_t>();
    } else if (args.is("--seed")) {
      cfg.seed = args.number<std::uint64_t>();
    } else if (args.is("--plan")) {
      plan_text = args.value();
    } else {
      std::fprintf(stderr, "replica: unknown flag %s\n", args.flag());
      return kExitUsage;
    }
  }
  cfg.transport.replicas = 2 * cfg.f + 1;
  cfg.transport.dir = cfg.data_dir;
  cfg.epoch = epoch_from_ns(epoch_ns);
  if (!plan_text.empty()) {
    std::string error;
    auto plan = net::NetFaultPlan::parse(plan_text, &error);
    if (!plan) {
      std::fprintf(stderr, "replica: bad --plan: %s\n", error.c_str());
      return kExitUsage;
    }
    cfg.plan = *std::move(plan);
  }
  return net::real::run_replica(cfg);
}

// ---------------------------------------------------------------------------
// Fleet: supervisor + audit-log bookkeeping

struct FleetConfig {
  int f = 1;
  net::real::TransportKind kind = net::real::TransportKind::kUds;
  int base_port = 47600;
  std::string dir;        // base data dir (must exist or be creatable)
  std::string plan_text;  // NetFaultPlan spec forwarded to every replica
  std::uint64_t seed = 1;
  std::string replica_bin = kSelfExe;  // binary spawned with --replica

  int replicas() const { return 2 * f + 1; }
};

// A replica's `start` audit-log line: what it reloaded from disk at boot.
struct AuditStart {
  int node = -1;
  std::uint64_t durable_ts = 0;
  int existed = 0;
  std::int64_t t_ns = 0;
};

// A STORE ack a client received: (replica, ts) at t_ns since the epoch.
struct AckRec {
  int replica = -1;
  std::uint64_t ts = 0;
  std::int64_t t_ns = 0;
};

// Durability audit (real kill-9 edition).
//
// Invariant: for every SIGKILL of replica v at supervisor time T, the
// next restart of v must reload durable_ts >= max{ts | some client
// received a STORE ack (v, ts) at time < T}. An ack received before the
// kill proves the persist completed before the kill (persist happens
// before the ack frame leaves), so the durable file must still hold it.
// A victim never restarted owes nothing and is not audited.
inline std::vector<std::string> audit_durability(
    const std::vector<net::real::ProcEvent>& events,
    const std::vector<AuditStart>& starts, const std::vector<AckRec>& acks,
    int* cycles_audited) {
  std::vector<std::string> findings;
  int audited = 0;
  for (const net::real::ProcEvent& ev : events) {
    if (ev.kind != net::real::ProcEvent::Kind::kKill) continue;
    std::uint64_t acked_before_kill = 0;
    for (const AckRec& ack : acks) {
      if (ack.replica == ev.node && ack.t_ns < ev.t_ns) {
        acked_before_kill = std::max(acked_before_kill, ack.ts);
      }
    }
    // First restart of this node after the kill.
    const AuditStart* restart = nullptr;
    for (const AuditStart& s : starts) {
      if (s.node == ev.node && s.t_ns > ev.t_ns &&
          (restart == nullptr || s.t_ns < restart->t_ns)) {
        restart = &s;
      }
    }
    if (restart == nullptr) continue;
    ++audited;
    std::ostringstream os;
    if (restart->existed == 0 && acked_before_kill > 0) {
      os << "durability: replica " << ev.node
         << " restarted with NO durable file but had acked ts "
         << acked_before_kill << " before the kill";
    } else if (restart->durable_ts < acked_before_kill) {
      os << "durability: replica " << ev.node << " restarted with durable_ts "
         << restart->durable_ts << " < acked ts " << acked_before_kill
         << " (ack received before the SIGKILL at t_ns=" << ev.t_ns
         << ") — persist-before-ack violated";
    } else {
      continue;
    }
    findings.push_back(os.str());
  }
  if (cycles_audited != nullptr) *cycles_audited = audited;
  return findings;
}

class Fleet {
 public:
  Fleet(const FleetConfig& cfg, SteadyPoint epoch)
      : cfg_(cfg), epoch_(epoch), sup_(epoch) {}

  const std::string& dir() const { return dir_; }
  const FleetConfig& config() const { return cfg_; }
  net::real::Supervisor& sup() { return sup_; }
  std::string audit_path() const { return dir_ + "/audit.log"; }

  // Creates (or wipes) the data directory and spawns every replica.
  bool start(const std::string& subdir = std::string()) {
    dir_ = cfg_.dir + (subdir.empty() ? "" : "/" + subdir);
    const std::string cmd = "rm -rf '" + dir_ + "' && mkdir -p '" + dir_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "cannot prepare data dir %s\n", dir_.c_str());
      return false;
    }
    for (int node = 0; node < cfg_.replicas(); ++node) spawn(node);
    return true;
  }

  void spawn(int node) {
    std::vector<std::string> argv = {
        cfg_.replica_bin,
        "--replica",
        "--node", std::to_string(node),
        "--f", std::to_string(cfg_.f),
        "--dir", dir_,
        "--kind", kind_name(cfg_.kind),
        "--base-port", std::to_string(cfg_.base_port),
        "--epoch-ns", std::to_string(epoch_to_ns(epoch_)),
        "--seed", std::to_string(mix_seed(cfg_.seed, 100 + node)),
    };
    if (!cfg_.plan_text.empty()) {
      argv.push_back("--plan");
      argv.push_back(cfg_.plan_text);
    }
    sup_.spawn(node, argv);
  }

  int serving_count(int node) const {
    int count = 0;
    std::ifstream in(audit_path());
    std::string line;
    while (std::getline(in, line)) {
      int got = -1;
      std::uint64_t ts = 0;
      std::int64_t t = 0;
      if (std::sscanf(line.c_str(),
                      "serving node=%d ts=%" SCNu64 " t_ns=%" SCNd64, &got,
                      &ts, &t) == 3 &&
          got == node) {
        ++count;
      }
    }
    return count;
  }

  std::vector<AuditStart> starts() const {
    std::vector<AuditStart> out;
    std::ifstream in(audit_path());
    std::string line;
    while (std::getline(in, line)) {
      AuditStart s;
      if (std::sscanf(line.c_str(),
                      "start node=%d durable_ts=%" SCNu64
                      " existed=%d t_ns=%" SCNd64,
                      &s.node, &s.durable_ts, &s.existed, &s.t_ns) == 4) {
        out.push_back(s);
      }
    }
    return out;
  }

  bool wait_serving(int node, int min_count, std::chrono::milliseconds limit) {
    const net::Deadline deadline = net::Deadline::after(limit);
    while (!deadline.expired()) {
      if (serving_count(node) >= min_count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  bool wait_all_serving(std::chrono::milliseconds limit) {
    for (int node = 0; node < cfg_.replicas(); ++node) {
      if (!wait_serving(node, 1, limit)) {
        std::fprintf(stderr, "replica %d never reached serving\n", node);
        return false;
      }
    }
    return true;
  }

 private:
  FleetConfig cfg_;
  SteadyPoint epoch_;
  net::real::Supervisor sup_;
  std::string dir_;
};

// Kill-9 chaos over the fleet: `kills` SIGKILL/restart cycles spread
// evenly across a run of `total` units of `done` (writes done in direct
// mode, ops done in daemon mode), victims round-robin, each cycle
// waiting for the victim's rejoin (its next 'serving' audit line) before
// arming the next. Returns the recovery finding that cut the loop
// short, or an empty string.
inline std::string run_kill_cycles(Fleet& fleet, int kills,
                                   std::uint64_t total,
                                   const std::atomic<std::uint64_t>& done,
                                   std::atomic<std::uint64_t>& progress) {
  for (int k = 0; k < kills; ++k) {
    const std::uint64_t threshold = total *
                                    static_cast<std::uint64_t>(k + 1) /
                                    static_cast<std::uint64_t>(kills + 1);
    while (done.load(std::memory_order_relaxed) < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int victim = k % fleet.config().replicas();
    const int seen = fleet.serving_count(victim);
    std::printf("fleet: kill-9 cycle %d/%d -> replica %d\n", k + 1, kills,
                victim);
    fleet.sup().kill9(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // downtime
    fleet.spawn(victim);
    progress.fetch_add(1);
    if (!fleet.wait_serving(victim, seen + 1,
                            std::chrono::milliseconds(30000))) {
      return "recovery: replica " + std::to_string(victim) +
             " did not rejoin (no new 'serving' line) within 30s of restart";
    }
    progress.fetch_add(1);
  }
  return std::string();
}

}  // namespace compreg::tools

// Shared replica-fleet harness plumbing for the real-transport tools.
//
// verify_net_real, compreg_server and compreg_loadgen all need the same
// three pieces: a `--replica` child mode (the spawned binary re-executes
// itself as a replica event loop), a Fleet wrapper around the Supervisor
// that spawns 2f+1 replicas and parses the shared audit.log, and the
// fleet-epoch timestamp helpers that let child processes agree with the
// harness on one monotonic time origin. Extracted here so the register
// service tools (tools/compreg_server.cpp, tools/compreg_loadgen.cpp)
// reuse the exact harness the transport certifier was built on instead
// of drifting copies.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
// Replica child mode: `<tool> --replica --node N ...`
//
// Every fleet tool supports the same child flags, so a supervisor can
// spawn any of them as a replica. argv[1] is "--replica"; parsing starts
// at argv[2].

inline int run_replica_child(int argc, char** argv) {
  net::real::ReplicaConfig cfg;
  std::string plan_text;
  std::int64_t epoch_ns = 0;
  for (int i = 2; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "replica: missing value for %s\n", argv[i]);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--node")) {
      cfg.transport.self = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--f")) {
      cfg.f = std::atoi(next());
    } else if (!std::strcmp(argv[i], "--dir")) {
      cfg.data_dir = next();
    } else if (!std::strcmp(argv[i], "--kind")) {
      cfg.transport.kind = !std::strcmp(next(), "tcp")
                               ? net::real::TransportKind::kTcp
                               : net::real::TransportKind::kUds;
    } else if (!std::strcmp(argv[i], "--base-port")) {
      cfg.transport.base_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (!std::strcmp(argv[i], "--epoch-ns")) {
      epoch_ns = std::strtoll(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seed")) {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--plan")) {
      plan_text = next();
    } else {
      std::fprintf(stderr, "replica: unknown flag %s\n", argv[i]);
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
  const char* kind_name() const {
    return kind == net::real::TransportKind::kTcp ? "tcp" : "uds";
  }
};

struct AuditStart {
  int node = -1;
  std::uint64_t durable_ts = 0;
  int existed = 0;
  std::int64_t t_ns = 0;
};

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
        "--kind", cfg_.kind_name(),
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

}  // namespace compreg::tools

// The service stack under test: a 2f+1 replica fleet and the
// compreg_server daemon in front of it, each its own process, all
// spawned from the compreg_server binary and talking over Unix-domain
// sockets under one directory inside the checkout.
//
// The tools' Fleet harness (tools/fleet_common.h) is not reused: it
// wipes the data directory through a shell and polls readiness every
// 10 ms, and both would land inside the timed set-up.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "net/real/supervisor.h"

namespace perfbench {

class Stack {
 public:
  static constexpr int kF = 1;
  static constexpr int kReplicas = 2 * kF + 1;

  // `dir` is created fresh; `server_bin` is the compreg_server binary.
  Stack(std::string server_bin, std::string dir, std::uint64_t seed);
  // Stops whatever is still running (server first, then the fleet).
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const std::string& dir() const { return dir_; }
  std::string front_dir() const { return dir_ + "/front"; }
  std::string stats_path() const { return dir_ + "/server_stats.txt"; }

  // Spawns every replica and returns once each one accepts connections.
  bool start_fleet(std::chrono::milliseconds limit);
  // Spawns the daemon and returns once a read through it comes back
  // ReadOk; `ts` receives the timestamp that read saw. Polls without
  // fixed sleeps, so the time to return is the daemon's set-up time.
  bool start_server(std::chrono::milliseconds limit);

  // One read through the daemon; false if no ReadOk within `limit`.
  bool read_through_server(std::chrono::milliseconds limit,
                           std::uint64_t& ts);

  // Sum of VmHWM over the daemon and the replicas, in MiB.
  double peak_rss_mb() const;

  // SIGTERM the daemon and wait for its drain; its telemetry lands in
  // stats_path(). No-op if no daemon is running.
  void stop_server();
  void stop_fleet();

 private:
  static constexpr int kServerNode = kReplicas;  // supervisor slot

  std::string server_bin_;
  std::string dir_;
  std::uint64_t seed_;
  std::chrono::steady_clock::time_point epoch_;
  compreg::net::real::Supervisor sup_;
};

}  // namespace perfbench

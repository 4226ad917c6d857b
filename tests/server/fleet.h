// An in-process register fleet for server tests: 2f+1 replicas, each
// the ABD protocol core behind its own SocketTransport on a thread of
// the test process, plus the scratch directory and a request helper.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/abd.h"
#include "net/real/transport.h"
#include "net/real/wire.h"
#include "server/client.h"
#include "server/server.h"

namespace compreg::server {

// A unique scratch directory, removed on scope exit.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    char tmpl[] = "/tmp/compreg-server-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~ScratchDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
};

// Volatile stable storage: enough for replicas that never restart.
struct MemDurable {
  std::uint64_t stable_ts = 0;
  std::uint64_t stable_val = 0;
  void persist(std::uint64_t ts, const std::uint64_t& val) {
    stable_ts = ts;
    stable_val = val;
  }
};

// One in-process fleet replica: the protocol core behind a socket.
inline void serve_replica(const net::real::TransportConfig& tc, int f,
                          const std::atomic<bool>& stop) {
  using net::real::MsgType;
  using net::real::WireMsg;
  net::real::SocketTransport net(tc);
  net::abd::Replica<std::uint64_t> rep(tc.self, f, 0);
  MemDurable disk;
  const auto self = static_cast<std::uint32_t>(tc.self);
  while (!stop.load()) {
    const auto d =
        net.poll(net::Deadline::after(std::chrono::milliseconds(5)));
    if (!d) continue;
    const WireMsg& m = d->msg;
    if (m.type == MsgType::kStore) {
      if (const auto ts = rep.on_store(disk, m.ts, m.val)) {
        net.send(d->src, WireMsg{MsgType::kStoreAck, self, m.op, *ts, 0});
      }
    } else if (m.type == MsgType::kQuery) {
      const auto s = rep.on_query();
      net.send(d->src, WireMsg{MsgType::kQueryReply, self, m.op, s->ts,
                               s->val});
    }
  }
}

// The replicas a server configured by `cfg` fronts (UDS in
// cfg.fleet_dir), each on its own thread; stopped and joined on scope
// exit.
class InProcessFleet {
 public:
  explicit InProcessFleet(const ServerConfig& cfg) {
    for (int r = 0; r < cfg.replicas(); ++r) {
      net::real::TransportConfig tc;
      tc.self = r;
      tc.replicas = cfg.replicas();
      tc.dir = cfg.fleet_dir;
      threads_.emplace_back(serve_replica, tc, cfg.f, std::cref(stop_));
    }
  }
  ~InProcessFleet() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  InProcessFleet(const InProcessFleet&) = delete;
  InProcessFleet& operator=(const InProcessFleet&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Sends one request and waits up to 5 s for its response.
inline net::real::WireMsg ask(ServerClient& client,
                              const net::real::WireMsg& req) {
  EXPECT_TRUE(client.send(req));
  const std::optional<net::real::WireMsg> resp =
      client.recv(std::chrono::milliseconds(5000));
  EXPECT_TRUE(resp.has_value());
  return resp.value_or(net::real::WireMsg{});
}

}  // namespace compreg::server

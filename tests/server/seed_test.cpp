// The write worker's timestamp seeding. A server that could not read
// the fleet's timestamp at start-up must not invent one: a write at or
// below the fleet's state is acked by replicas without being adopted,
// so the client would get WriteOk for a write no read can ever see.
// Until a seed read succeeds, writes are answered Busy, and the seed is
// retried before each write.
#include <gtest/gtest.h>
#include <sys/stat.h>
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
#include "net/real/client.h"
#include "net/real/transport.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace compreg::server {
namespace {

using net::real::MsgType;
using net::real::WireMsg;
using std::chrono::milliseconds;

struct ScratchDir {
  std::string path;
  ScratchDir() {
    char tmpl[] = "/tmp/compreg-seed-XXXXXX";
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
void serve_replica(const net::real::TransportConfig& tc,
                   const std::atomic<bool>& stop) {
  net::real::SocketTransport net(tc);
  net::abd::Replica<std::uint64_t> rep(tc.self, 1, 0);
  MemDurable disk;
  const auto self = static_cast<std::uint32_t>(tc.self);
  while (!stop.load()) {
    const auto d = net.poll(net::Deadline::after(milliseconds(5)));
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

WireMsg ask(ServerClient& client, const WireMsg& req) {
  EXPECT_TRUE(client.send(req));
  const std::optional<WireMsg> resp = client.recv(milliseconds(5000));
  EXPECT_TRUE(resp.has_value());
  return resp.value_or(WireMsg{});
}

TEST(ServerSeedTest, UnseededWriteIsBusyAndSeedingResumesOnceFleetIsUp) {
  ScratchDir dir;
  ServerConfig cfg;
  cfg.fleet_dir = dir.path;
  cfg.front_dir = dir.path + "/front";
  ASSERT_EQ(::mkdir(cfg.front_dir.c_str(), 0755), 0);
  cfg.attempt_ms = 5;
  cfg.max_attempts = 2;
  Server server(cfg);
  std::atomic<bool> stop_server{false};
  std::thread front([&] { server.run(stop_server); });

  ClientConfig cc;
  cc.front_dir = cfg.front_dir;
  ServerClient client(cc);
  ASSERT_TRUE(client.connect(milliseconds(5000)));

  // No fleet yet: the worker's start-up seed reads all fail, and so does
  // the retry before this write.
  const WireMsg early = ask(client, make_write_req(cc.id, 1, 11));
  EXPECT_EQ(early.type, MsgType::kBusyResp);

  // The fleet comes up already holding ts 5 (another writer's state).
  std::atomic<bool> stop_fleet{false};
  std::vector<std::thread> fleet;
  for (int r = 0; r < cfg.replicas(); ++r) {
    net::real::TransportConfig tc;
    tc.self = r;
    tc.replicas = cfg.replicas();
    tc.dir = cfg.fleet_dir;
    fleet.emplace_back(serve_replica, tc, std::cref(stop_fleet));
  }
  {
    net::real::TransportConfig tc;
    tc.self = cfg.replicas() + 2;  // after the server's two fleet clients
    tc.replicas = cfg.replicas();
    tc.dir = cfg.fleet_dir;
    net::real::SocketTransport net(tc);
    net::real::RealAbdClient direct(net, net::real::RealClientConfig{},
                                    std::chrono::steady_clock::now());
    EXPECT_TRUE(direct.try_write(5, 55));
  }

  // The next write seeds first, so its timestamp continues the fleet's
  // and a read sees it.
  const WireMsg wrote = ask(client, make_write_req(cc.id, 2, 22));
  EXPECT_EQ(wrote.type, MsgType::kWriteOk);
  EXPECT_GT(wrote.ts, 5u);
  const WireMsg read = ask(client, make_read_req(cc.id, 3));
  EXPECT_EQ(read.type, MsgType::kReadOk);
  EXPECT_EQ(read.ts, wrote.ts);
  EXPECT_EQ(read.val, 22u);

  stop_server.store(true);
  front.join();
  stop_fleet.store(true);
  for (std::thread& t : fleet) t.join();
  const Server::Conservation c = server.conservation();
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.received, 3u);
  EXPECT_EQ(c.busy, 1u);
  EXPECT_EQ(c.writes_ok, 1u);
  EXPECT_EQ(c.reads_ok, 1u);
}

}  // namespace
}  // namespace compreg::server

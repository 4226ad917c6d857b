// The write worker's timestamp seeding. A server that could not read
// the fleet's timestamp at start-up must not invent one: a write at or
// below the fleet's state is acked by replicas without being adopted,
// so the client would get WriteOk for a write no read can ever see.
// Until a seed read succeeds, writes are answered Busy, and the seed is
// retried before each write.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "fleet.h"
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
  InProcessFleet fleet(cfg);
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
  const Server::Conservation c = server.conservation();
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.received, 3u);
  EXPECT_EQ(c.busy, 1u);
  EXPECT_EQ(c.writes_ok, 1u);
  EXPECT_EQ(c.reads_ok, 1u);
}

}  // namespace
}  // namespace compreg::server

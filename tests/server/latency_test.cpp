// The server's per-read overhead. A read is one quorum collect on the
// read worker (tens of µs over UDS); its response must go out as soon
// as the worker posts it, not when the front-end's 1 ms poll deadline
// next expires. Serial reads through one client therefore have a
// median well under that deadline.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fleet.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace compreg::server {
namespace {

using net::real::MsgType;
using net::real::WireMsg;
using std::chrono::milliseconds;

TEST(ServerLatencyTest, SerialReadMedianIsWellUnderThePollDeadline) {
  ScratchDir dir;
  ServerConfig cfg;
  cfg.fleet_dir = dir.path;
  cfg.front_dir = dir.path + "/front";
  ASSERT_EQ(::mkdir(cfg.front_dir.c_str(), 0755), 0);
  InProcessFleet fleet(cfg);
  Server server(cfg);
  std::atomic<bool> stop_server{false};
  std::thread front([&] { server.run(stop_server); });

  ClientConfig cc;
  cc.front_dir = cfg.front_dir;
  ServerClient client(cc);
  ASSERT_TRUE(client.connect(milliseconds(5000)));

  std::uint64_t op = 1;
  const WireMsg wrote = ask(client, make_write_req(cc.id, op++, 7));
  ASSERT_EQ(wrote.type, MsgType::kWriteOk);

  constexpr int kWarmup = 20;
  constexpr int kReads = 200;
  std::vector<std::int64_t> us;
  us.reserve(kReads);
  for (int i = 0; i < kWarmup + kReads; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const WireMsg read = ask(client, make_read_req(cc.id, op++));
    const auto t1 = std::chrono::steady_clock::now();
    ASSERT_EQ(read.type, MsgType::kReadOk);
    EXPECT_EQ(read.val, 7u);
    if (i >= kWarmup) {
      us.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count());
    }
  }
  std::nth_element(us.begin(), us.begin() + kReads / 2, us.end());
  const std::int64_t median_us = us[kReads / 2];
  RecordProperty("median_read_us", std::to_string(median_us));
  EXPECT_LT(median_us, 500) << "median serial read " << median_us << " us";

  stop_server.store(true);
  front.join();
  const Server::Conservation c = server.conservation();
  EXPECT_TRUE(c.ok);
  EXPECT_EQ(c.received, 1u + kWarmup + kReads);
  EXPECT_EQ(c.reads_ok, static_cast<std::uint64_t>(kWarmup + kReads));
}

}  // namespace
}  // namespace compreg::server

// The ABD protocol core (net/abd.h) on its own: no processes, no SimNet.
// A scripted Io stands in for the network and a recording Durable for
// stable storage, so each protocol decision is checked directly.
#include "net/abd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace compreg::net::abd {
namespace {

using Value = std::uint64_t;

struct Reply {
  int replica;
  std::uint64_t ts;
  Value val;
};

// Scripted network: `respond` maps each broadcast to the replies that
// arrive during the next await (op ids are the broadcast's unless a
// reply overrides it).
struct ScriptedIo {
  struct Sent {
    Kind kind;
    std::uint64_t op;
    Stamped<Value> req;
  };
  struct Arrival {
    Reply reply;
    std::optional<std::uint64_t> op;  // nullopt = the broadcast's op
  };

  using Script = std::function<std::vector<Arrival>(const Sent&)>;

  ScriptedIo(Client<Value>& c, Script script)
      : client(c), respond(std::move(script)) {}

  Client<Value>& client;
  Script respond;
  std::vector<Sent> sent;
  std::vector<Arrival> in_flight;
  std::vector<Offer> offers;
  std::vector<std::uint64_t> awaits;

  void broadcast(Kind kind, std::uint64_t op, const Stamped<Value>& req) {
    sent.push_back(Sent{kind, op, req});
    if (respond) in_flight = respond(sent.back());
  }
  bool await(std::uint64_t budget) {
    awaits.push_back(budget);
    for (const Arrival& a : in_flight) {
      offers.push_back(client.offer(a.op.value_or(sent.back().op),
                                    a.reply.replica, a.reply.ts, a.reply.val));
    }
    in_flight.clear();
    return client.has_quorum();
  }
};

using Arrivals = std::vector<ScriptedIo::Arrival>;

constexpr RetryPolicy kOneAttempt{10, 1, 0, 0};

// Stable storage that records every persist, in order.
struct RecordingDurable {
  std::uint64_t stable_ts = 0;
  Value stable_val = 0;
  std::vector<std::uint64_t> persisted;

  void persist(std::uint64_t ts, const Value& val) {
    persisted.push_back(ts);
    stable_ts = ts;
    stable_val = val;
  }
  std::uint64_t ts() const { return stable_ts; }
  const Value& value() const { return stable_val; }
};

TEST(AbdClientTest, StaleOpIdIsIgnored) {
  ClientStats stats;
  Client<Value> client(1, kOneAttempt, 1, 3, stats);
  ScriptedIo io(client, [](const ScriptedIo::Sent& s) {
                  return Arrivals{{{0, 9, 90}, s.op - 1},
                                  {{1, 9, 90}, s.op + 1},
                                  {{0, 2, 20}, std::nullopt},
                                  {{1, 2, 20}, std::nullopt}};
                });
  ASSERT_TRUE(client.write(io, 1, 10));  // op 1
  const std::optional<Stamped<Value>> got = client.read(io);  // op 2
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 2u);
  EXPECT_EQ(got->val, 20u);
  ASSERT_EQ(io.offers.size(), 8u);
  EXPECT_EQ(io.offers[4], Offer::kStale);  // the read's op - 1
  EXPECT_EQ(io.offers[5], Offer::kStale);  // the read's op + 1
  EXPECT_EQ(io.offers[6], Offer::kCounted);
  EXPECT_EQ(io.offers[7], Offer::kCounted);
  // An id from no replica is stale too.
  EXPECT_EQ(client.offer(io.sent.back().op, 3, 1, 1), Offer::kStale);
  EXPECT_EQ(client.offer(io.sent.back().op, -1, 1, 1), Offer::kStale);
}

TEST(AbdClientTest, DuplicateReplyFromOneReplicaCountsOnce) {
  ClientStats stats;
  Client<Value> client(1, kOneAttempt, 1, 3, stats);
  ScriptedIo io(client, [](const ScriptedIo::Sent&) {
                  return Arrivals{{{2, 0, 0}, std::nullopt},
                                  {{2, 0, 0}, std::nullopt},
                                  {{2, 0, 0}, std::nullopt}};
                });
  EXPECT_FALSE(client.write(io, 1, 10));
  EXPECT_EQ(io.offers, (std::vector<Offer>{Offer::kCounted, Offer::kDuplicate,
                                           Offer::kDuplicate}));
  EXPECT_FALSE(client.has_quorum());
  EXPECT_EQ(stats.unavailable, 1u);
}

TEST(AbdClientTest, UniformQuorumSkipsWriteBack) {
  ClientStats stats;
  Client<Value> client(1, kOneAttempt, 1, 3, stats);
  ScriptedIo io(client, [](const ScriptedIo::Sent&) {
                  return Arrivals{{{0, 4, 40}, std::nullopt},
                                  {{1, 4, 40}, std::nullopt}};
                });
  const std::optional<Stamped<Value>> got = client.read(io);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->val, 40u);
  EXPECT_EQ(io.sent.size(), 1u);  // the query only
  EXPECT_EQ(stats.writeback_skips, 1u);
  EXPECT_EQ(stats.writebacks, 0u);
}

TEST(AbdClientTest, NonUniformRepliesForceWriteBackOfTheMaximum) {
  ClientStats stats;
  Client<Value> client(1, kOneAttempt, 1, 3, stats);
  ScriptedIo io(client, [](const ScriptedIo::Sent& s) {
                  if (s.kind == Kind::kQuery) {
                    return Arrivals{{{0, 1, 10}, std::nullopt},
                                    {{1, 3, 30}, std::nullopt}};
                  }
                  return Arrivals{{{1, 3, 0}, std::nullopt},
                                  {{2, 3, 0}, std::nullopt}};
                });
  const std::optional<Stamped<Value>> got = client.read(io);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 3u);
  EXPECT_EQ(got->val, 30u);
  ASSERT_EQ(io.sent.size(), 2u);
  EXPECT_EQ(io.sent[1].kind, Kind::kStore);
  EXPECT_EQ(io.sent[1].req.ts, 3u);
  EXPECT_EQ(io.sent[1].req.val, 30u);
  EXPECT_GT(io.sent[1].op, io.sent[0].op);  // a fresh phase
  EXPECT_EQ(stats.writebacks, 1u);
  EXPECT_EQ(stats.writeback_skips, 0u);
  EXPECT_EQ(stats.phases, 2u);
}

TEST(AbdClientTest, FailedWriteBackMakesTheReadUnavailable) {
  ClientStats stats;
  Client<Value> client(1, kOneAttempt, 1, 3, stats);
  ScriptedIo io(client, [](const ScriptedIo::Sent& s) {
                  if (s.kind == Kind::kStore) return Arrivals{};
                  return Arrivals{{{0, 1, 10}, std::nullopt},
                                  {{1, 3, 30}, std::nullopt}};
                });
  EXPECT_EQ(client.read(io), std::nullopt);
  EXPECT_EQ(stats.writebacks, 0u);
  EXPECT_EQ(stats.unavailable, 1u);
}

TEST(AbdClientTest, SpentBudgetBacksOffBetweenAttemptsThenGivesUp) {
  ClientStats stats;
  Client<Value> client(1, RetryPolicy{100, 3, 2, 32}, 1, 3, stats);
  ScriptedIo io(client, nullptr);  // total silence
  EXPECT_FALSE(client.write(io, 1, 10));
  EXPECT_EQ(io.sent.size(), 3u);
  EXPECT_EQ(io.sent[0].op, io.sent[2].op);  // one op id across attempts
  // attempt, backoff, attempt, backoff, attempt: none after the last.
  ASSERT_EQ(io.awaits.size(), 5u);
  EXPECT_EQ(io.awaits[0], 100u);
  EXPECT_GE(io.awaits[1], 2u);
  EXPECT_LE(io.awaits[1], 3u);
  EXPECT_EQ(io.awaits[2], 100u);
  EXPECT_GE(io.awaits[3], 4u);
  EXPECT_LE(io.awaits[3], 6u);
  EXPECT_EQ(io.awaits[4], 100u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.unavailable, 1u);
}

TEST(AbdReplicaTest, NoDurableStateServesAtOnce) {
  RecordingDurable disk;
  Replica<Value> rep(0, 1, 7);
  EXPECT_FALSE(rep.rejoin(disk, 1));
  EXPECT_TRUE(rep.serving());
  const std::optional<Stamped<Value>> state = rep.on_query();
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->ts, 0u);
  EXPECT_EQ(state->val, 0u);  // what the (empty) disk held
}

TEST(AbdReplicaTest, NonServingReplicaStaysSilent) {
  RecordingDurable disk{4, 40, {}};
  Replica<Value> rep(0, 1, 0);
  EXPECT_TRUE(rep.rejoin(disk, 1));  // durable state: catch up first
  EXPECT_FALSE(rep.serving());
  EXPECT_EQ(rep.state().ts, 4u);
  EXPECT_EQ(rep.on_store(disk, 9, 90), std::nullopt);
  EXPECT_EQ(rep.on_query(), std::nullopt);  // QUERY and SYNC-REQ alike
  EXPECT_TRUE(disk.persisted.empty());
  EXPECT_EQ(rep.state().ts, 4u);
}

TEST(AbdReplicaTest, PersistComesBeforeAck) {
  RecordingDurable disk;
  Replica<Value> rep(1, 1, 0);
  const std::optional<std::uint64_t> ack = rep.on_store(disk, 5, 50);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(*ack, 5u);
  // The ack is only handed back once its timestamp is stable.
  EXPECT_EQ(disk.persisted, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(disk.stable_val, 50u);
  // A stale STORE adopts nothing and acks the stored (stable) state.
  const std::optional<std::uint64_t> stale = rep.on_store(disk, 3, 30);
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(*stale, 5u);
  EXPECT_EQ(disk.stable_ts, 5u);
  EXPECT_EQ(rep.state().val, 50u);
}

TEST(AbdReplicaTest, SyncReplyFromAnOlderIncarnationIsIgnored) {
  RecordingDurable disk{2, 20, {}};
  Replica<Value> rep(0, 1, 0);
  ASSERT_TRUE(rep.rejoin(disk, 7));
  EXPECT_FALSE(rep.on_sync_reply(disk, 6, 1, 9, 90));
  EXPECT_FALSE(rep.serving());
  EXPECT_EQ(rep.state().ts, 2u);
  EXPECT_TRUE(rep.on_sync_reply(disk, 7, 1, 9, 90));
  EXPECT_TRUE(rep.serving());
  EXPECT_EQ(rep.state().ts, 9u);
  EXPECT_EQ(disk.persisted, (std::vector<std::uint64_t>{9}));
}

TEST(AbdReplicaTest, RepeatedPeerCountsOnceTowardCatchUp) {
  RecordingDurable disk{2, 20, {}};
  Replica<Value> rep(0, 2, 0);  // f = 2: self + 2 distinct peers
  ASSERT_TRUE(rep.rejoin(disk, 1));
  EXPECT_FALSE(rep.on_sync_reply(disk, 1, 3, 5, 50));
  EXPECT_FALSE(rep.on_sync_reply(disk, 1, 3, 6, 60));  // same peer again
  EXPECT_FALSE(rep.on_sync_reply(disk, 1, 0, 8, 80));  // itself
  EXPECT_FALSE(rep.on_sync_reply(disk, 1, 5, 8, 80));  // no such replica
  EXPECT_FALSE(rep.serving());
  EXPECT_TRUE(disk.persisted.empty());
  EXPECT_TRUE(rep.on_sync_reply(disk, 1, 4, 3, 30));
  EXPECT_TRUE(rep.serving());
  // The newest peer state seen on the way is kept (even from a repeated
  // peer), and persisted exactly once.
  EXPECT_EQ(rep.state().ts, 6u);
  EXPECT_EQ(disk.persisted, (std::vector<std::uint64_t>{6}));
  // Late replies after serving change nothing.
  EXPECT_FALSE(rep.on_sync_reply(disk, 1, 1, 99, 990));
  EXPECT_EQ(rep.state().ts, 6u);
}

}  // namespace
}  // namespace compreg::net::abd

// Real-transport ABD client: the socket driver for the client half of
// the protocol core (net/abd.h), with wall-clock deadlines in place of
// the simulator's poll budgets.
//
// The core decides everything protocol-level — op-id fencing, one
// counted reply per replica, retry and backoff, the read's
// max-timestamp / write-back choice, Unavailable once the budget is
// spent. This driver broadcasts WireMsg frames, pumps the Transport
// until each wait's Deadline (the core's budgets are milliseconds)
// passes, and feeds each matching frame to the core.
//
// Writes are single-writer: the caller owns the timestamp sequence
// (next_write_ts()). An Unavailable write may still take effect later
// if its frames landed on a minority, which is why callers record it
// as a *pending* operation for the linearizability checker.
//
// The ack hook reports every STORE ack for the current phase (replica
// id, acked ts, receive time) so the harness's durability auditor can
// cross-check a killed replica's recovered state against what it
// acknowledged pre-kill.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "net/abd.h"
#include "net/real/transport.h"

namespace compreg::net::real {

struct RealClientConfig {
  int f = 1;
  std::chrono::milliseconds attempt_timeout{100};
  unsigned max_attempts = 8;  // per quorum phase (first try included)
  std::uint64_t jitter_seed = 0x9e7c0ffeeull;

  int replicas() const { return 2 * f + 1; }
};

// (replica id, acked timestamp, ns since fleet epoch the ack arrived)
using AckHook =
    std::function<void(int replica, std::uint64_t ts, std::int64_t t_ns)>;

struct RealReadResult {
  bool ok = false;  // false = Unavailable (explicit degradation)
  std::uint64_t ts = 0;
  std::uint64_t val = 0;
};

class RealAbdClient {
 public:
  // Backoff window bounds, in milliseconds.
  static constexpr unsigned kBackoffBaseMs = 2;
  static constexpr unsigned kBackoffCapMs = 64;

  // `net` must outlive the client. `epoch` is the fleet time origin used
  // for ack-hook timestamps.
  RealAbdClient(Transport& net, const RealClientConfig& cfg,
                std::chrono::steady_clock::time_point epoch);

  RealAbdClient(const RealAbdClient&) = delete;
  RealAbdClient& operator=(const RealAbdClient&) = delete;

  // SWMR write with a caller-chosen timestamp (use next_write_ts() for
  // the canonical sequence). Returns false on Unavailable; the write may
  // still take effect (record it pending).
  bool try_write(std::uint64_t ts, std::uint64_t val);

  // ABD read; result.ok == false means Unavailable.
  RealReadResult try_read();

  std::uint64_t next_write_ts() { return ++write_ts_; }

  void set_ack_hook(AckHook hook) { ack_hook_ = std::move(hook); }
  const abd::ClientStats& stats() const { return stats_; }

 private:
  struct Io;  // the core's I/O over net_

  // Feeds frames of the awaited type to the core until it has a quorum
  // (true) or the deadline passes (false).
  bool drain(const Deadline& deadline);

  Transport& net_;
  int replicas_;
  std::chrono::steady_clock::time_point epoch_;
  abd::ClientStats stats_;
  abd::Client<std::uint64_t> core_;
  MsgType want_ = MsgType::kQueryReply;  // reply type of the current phase
  std::uint64_t write_ts_ = 0;
  AckHook ack_hook_;
};

}  // namespace compreg::net::real

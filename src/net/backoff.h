// Retry timing for the ABD client (net/abd.h).
//
// The core's attempt → backoff → Unavailable loop draws each window from
// backoff_window(); the unit is its driver's — SimNet polls (schedule
// points) for ReplicatedRegister, milliseconds for real::RealAbdClient.
// The arithmetic is easy to get wrong (shift overflow, jitter draw
// discipline), so it is audited on its own by tests/net/backoff_test.cpp.
//
// Deadline wraps the monotonic clock (std::chrono::steady_clock =
// CLOCK_MONOTONIC on Linux) for the socket drivers: per-attempt
// timeouts, epoll_wait budgets, and fault-window arithmetic all compare
// against Deadline, so nothing in src/net/real/ touches the wall clock
// (which can jump) or mixes clock bases.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "util/rng.h"

namespace compreg::net {

// One bounded exponential backoff window: min(cap, base * 2^attempt)
// plus deterministic jitter in [0, window/2]. The unit is the caller's
// (polls for the simulator, milliseconds for the real transport). For
// large attempt counts the shift would overflow (and is outright UB at
// attempt >= 64), so the window saturates at `cap` instead. Consumes
// exactly one draw from `jitter` — replay-stable.
inline std::uint64_t backoff_window(unsigned base, unsigned cap,
                                    unsigned attempt, Rng& jitter) {
  std::uint64_t window = cap;
  const std::uint64_t wide = static_cast<std::uint64_t>(base);
  if (base == 0) {
    window = 0;
  } else if (attempt < 64 && ((wide << attempt) >> attempt) == wide) {
    window = std::min<std::uint64_t>(cap, wide << attempt);
  }
  window += jitter.below(window / 2 + 1);
  return window;
}

// A point on the monotonic clock that a bounded wait must not cross.
// Value-semantic and cheap: the real transport creates one per attempt
// / poll and threads it down to epoll_wait.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  // Already expired (poll-without-blocking).
  Deadline() : at_(Clock::time_point::min()) {}

  static Deadline after(Clock::duration d) { return Deadline(Clock::now() + d); }
  static Deadline at(Clock::time_point t) { return Deadline(t); }
  static Deadline never() { return Deadline(Clock::time_point::max()); }

  bool unbounded() const { return at_ == Clock::time_point::max(); }
  bool expired() const { return !unbounded() && Clock::now() >= at_; }
  Clock::time_point when() const { return at_; }

  // Time left, clamped at zero.
  Clock::duration remaining() const {
    if (unbounded()) return Clock::duration::max();
    const Clock::time_point now = Clock::now();
    return now >= at_ ? Clock::duration::zero() : at_ - now;
  }

  // epoll_wait-shaped timeout: -1 = block forever, otherwise the number
  // of whole milliseconds that covers the remaining time (rounded UP so
  // a 100us budget waits 1ms instead of spinning on 0).
  int remaining_ms_ceil() const {
    if (unbounded()) return -1;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(remaining())
            .count();
    if (ns <= 0) return 0;
    const std::int64_t ms = (ns + 999'999) / 1'000'000;
    return static_cast<int>(
        std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
  }

  // The earlier of two deadlines (attempt budget vs fault-release time).
  static Deadline earlier(const Deadline& a, const Deadline& b) {
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  explicit Deadline(Clock::time_point t) : at_(t) {}

  Clock::time_point at_;
};

}  // namespace compreg::net

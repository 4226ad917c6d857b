// Always-on wait-free telemetry (in the spirit of cortx-motr's addb2).
//
// The operation paths of a register server cannot afford instrumentation
// that locks, allocates, or contends: a mutex-protected histogram would
// serialize exactly the threads the server exists to decouple, and
// sampling profilers miss the rare events (retries, Unavailable
// degradations) that matter most. The design here is the classic
// per-thread single-writer recorder:
//
//   * each recording thread owns one cache-line-aligned Recorder; all
//     mutation is single-writer relaxed atomics (plain load+store — no
//     RMW, no lock prefix on x86), so recording costs a handful of
//     unshared-cache-line writes and never blocks;
//   * latency histograms use fixed log2 buckets (bucket i holds values
//     whose bit width is i, i.e. [2^(i-1), 2^i)), saturating at the top
//     bucket, so recording is a `bit_width` plus one relaxed increment
//     and the layout is identical in every recorder;
//   * counters are monotone — retries, quorum rounds, batched reads —
//     so merged totals from a concurrent snapshot are always a valid
//     (point-in-time-dominated) lower bound and never go backwards;
//   * aggregation is explicit merge-on-snapshot: a reader walks every
//     attached recorder and sums into a plain Snapshot struct. Recording
//     threads are never asked to flush, fence, or notice.
//
// The Registry hands out recorders from a fixed-capacity slot array via
// bounded CAS claim — attach is wait-free (at most kMaxRecorders CAS
// attempts) and allocation-free. Recorders stay attached for the life of
// the registry; a thread that exits simply stops incrementing, and its
// totals keep contributing to snapshots (merge-on-snapshot means nothing
// is ever lost, which is what makes the conservation check in
// tests/telemetry possible: recorded == exported once writers quiesce).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace compreg::telemetry {

// Monotone event counters. Names in counter_name() (telemetry.cpp).
enum class Counter : std::uint32_t {
  kOpsReceived = 0,   // requests admitted to counting (server front-end)
  kWritesOk,          // write ops acknowledged
  kReadsOk,           // read ops answered with a value
  kUnavailable,       // ops degraded to explicit Unavailable
  kBusy,              // ops rejected by admission control
  kRetries,           // quorum-phase re-broadcasts (from abd::ClientStats)
  kQuorumRounds,      // ABD quorum collects issued against the fleet
  kBatchRounds,       // shared read collects (one per batch)
  kBatchedReads,      // read ops answered from a shared collect
  kWritesEnqueued,    // ops entering the write worker queue
  kWritesDequeued,    // ops leaving it (difference = instantaneous depth)
  kCount
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
const char* counter_name(Counter c);

// Log2-bucket histograms. Units are per-histogram (documented in name).
enum class Histo : std::uint32_t {
  kWriteLatencyUs = 0,  // request-arrival to response-send, microseconds
  kReadLatencyUs,
  kBatchOccupancy,      // readers sharing one quorum collect
  kQueueDepth,          // write-queue depth observed at dequeue
  kCount
};
inline constexpr std::size_t kHistoCount =
    static_cast<std::size_t>(Histo::kCount);
const char* histo_name(Histo h);

inline constexpr std::size_t kHistoBuckets = 32;

// Bucket index of a recorded value: 0 holds only 0, bucket i >= 1 holds
// [2^(i-1), 2^i), the top bucket saturates (absorbs everything wider).
constexpr std::size_t histo_bucket(std::uint64_t v) {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistoBuckets ? w : kHistoBuckets - 1;
}

// Inclusive value bounds of bucket i (the top bucket's upper bound is
// saturated to the widest representable value of the bucket below it
// times 2, which is all the resolution a log2 histogram claims).
constexpr std::uint64_t histo_bucket_lo(std::size_t i) {
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}
constexpr std::uint64_t histo_bucket_hi(std::size_t i) {
  return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
}

// One thread's instrument block. Single-writer: exactly one thread calls
// count()/record(); any thread may concurrently read via merge_into().
// alignas(64) keeps distinct recorders (and the registry's claim flags)
// off each other's cache lines.
struct alignas(64) Recorder {
  std::atomic<std::uint64_t> counters[kCounterCount];
  std::atomic<std::uint64_t> buckets[kHistoCount * kHistoBuckets];
  std::atomic<std::uint64_t> sums[kHistoCount];  // sum of recorded values

  Recorder() {
    for (auto& c : counters) c.store(0);
    for (auto& b : buckets) b.store(0);
    for (auto& s : sums) s.store(0);
  }

  void count(Counter c, std::uint64_t delta = 1) {
    auto& cell = counters[static_cast<std::size_t>(c)];
    // Single-writer cell: load+store beats an RMW; relaxed is enough
    // because merge-on-snapshot needs only per-cell monotonicity.
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
  }

  void record(Histo h, std::uint64_t value) {
    auto& cell = buckets[static_cast<std::size_t>(h) * kHistoBuckets +
                         histo_bucket(value)];
    // Same single-writer argument as count(): no RMW, relaxed order.
    cell.store(cell.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    auto& sum = sums[static_cast<std::size_t>(h)];
    // Sum cell is also owned by this thread alone; relaxed suffices.
    sum.store(sum.load(std::memory_order_relaxed) + value,
              std::memory_order_relaxed);
  }
};

// Merged view of one histogram (plain data, no atomics).
struct HistoSnapshot {
  std::uint64_t buckets[kHistoBuckets] = {};
  std::uint64_t sum = 0;

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kHistoBuckets; ++i) n += buckets[i];
    return n;
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }
  // Upper-bound estimate of quantile q in [0,1]: the inclusive hi bound
  // of the bucket holding the q-th recorded value.
  std::uint64_t quantile(double q) const;
};

// Merged view across recorders. Plain struct: build once, read freely.
struct Snapshot {
  std::uint64_t counters[kCounterCount] = {};
  HistoSnapshot histos[kHistoCount];
  std::uint64_t recorders = 0;  // recorders merged into this snapshot

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistoSnapshot& histo(Histo h) const {
    return histos[static_cast<std::size_t>(h)];
  }

  // Accumulates one recorder (relaxed reads of its cells).
  void merge_from(const Recorder& r);
};

// Fixed-capacity recorder registry. attach() claims a slot with at most
// kMaxRecorders CAS attempts (wait-free, allocation-free); snapshot()
// merges every claimed recorder. Intended use: one Registry per server
// (or the process-wide global()), one attach() per recording thread.
class Registry {
 public:
  static constexpr std::size_t kMaxRecorders = 64;

  Registry() {
    for (auto& c : claimed_) c.store(false);
  }

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Claims and returns an unclaimed recorder; nullptr when full.
  Recorder* attach() {
    for (std::size_t i = 0; i < kMaxRecorders; ++i) {
      bool expected = false;
      // acq_rel: the claim must not be reordered with the claimer's
      // subsequent recorder writes as seen by a concurrent snapshot.
      if (claimed_[i].compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
        return &recorders_[i];
      }
    }
    return nullptr;
  }

  std::size_t attached() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kMaxRecorders; ++i) {
      // acquire pairs with the attach() claim (see comment there).
      if (claimed_[i].load(std::memory_order_acquire)) ++n;
    }
    return n;
  }

  Snapshot snapshot() const {
    Snapshot out;
    for (std::size_t i = 0; i < kMaxRecorders; ++i) {
      // acquire pairs with the attach() claim (see comment there).
      if (!claimed_[i].load(std::memory_order_acquire)) continue;
      out.merge_from(recorders_[i]);
      ++out.recorders;
    }
    return out;
  }

  // Process-wide registry for code without a natural owner.
  static Registry& global();

 private:
  Recorder recorders_[kMaxRecorders];
  // alignas(64): claim flags are CAS-hammered by attaching threads and
  // must not share a line with the tail of the last recorder.
  alignas(64) std::atomic<bool> claimed_[kMaxRecorders];
};

}  // namespace compreg::telemetry

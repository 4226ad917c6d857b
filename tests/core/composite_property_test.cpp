// Property-style invariants of the construction, swept over shapes,
// value types, backends and schedules.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <utility>

#include "core/composite_register.h"
#include "lin/shrinking_checker.h"
#include "lin/workload.h"
#include "registers/tagged_cell.h"
#include "sched/policy.h"
#include "util/rng.h"

namespace compreg::core {
namespace {

// Property: a scan never invents values — every returned item is the
// initial value or a value some write actually wrote, with a matching
// id. (Integrity, directly at the API.)
TEST(CompositePropertyTest, ScansNeverInventValues) {
  CompositeRegister<std::uint64_t> reg(3, 2, 7777);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int k = 0; k < 3; ++k) {
    writers.emplace_back([&, k] {
      for (std::uint64_t i = 1; i <= 30000; ++i) {
        // Value encodes (component, id): verifiable by any reader.
        reg.update(k, (static_cast<std::uint64_t>(k + 1) << 32) | i);
      }
    });
  }
  std::vector<Item<std::uint64_t>> items;
  for (int n = 0; n < 10000; ++n) {
    reg.scan_items(0, items);
    for (int k = 0; k < 3; ++k) {
      const Item<std::uint64_t>& it = items[static_cast<std::size_t>(k)];
      if (it.id == 0) {
        ASSERT_EQ(it.val, 7777u);
      } else {
        ASSERT_EQ(it.val >> 32, static_cast<std::uint64_t>(k + 1));
        ASSERT_EQ(it.val & 0xffffffffu, it.id);
      }
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

// Property: scan ids never exceed the number of writes issued so far
// (no value from the future) — checked live with an upper-bound probe.
TEST(CompositePropertyTest, NoFutureIds) {
  CompositeRegister<std::uint64_t> reg(2, 1, 0);
  std::atomic<std::uint64_t> issued{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 50000; ++i) {
      issued.store(i, std::memory_order_seq_cst);  // announce BEFORE write
      reg.update(0, i);
    }
    stop.store(true);
  });
  std::vector<Item<std::uint64_t>> items;
  while (!stop.load()) {
    reg.scan_items(0, items);
    const std::uint64_t bound = issued.load(std::memory_order_seq_cst);
    // The id we saw cannot exceed the writes issued by the time the
    // scan finished (issued is bumped before each update begins).
    ASSERT_LE(items[0].id, bound);
  }
  writer.join();
}

// Property: non-trivially-copyable payloads (std::array wrapped in a
// struct with padding patterns) survive the recursion intact.
struct Blob {
  std::array<std::uint64_t, 16> words{};
  friend bool operator==(const Blob&, const Blob&) = default;
};

TEST(CompositePropertyTest, LargePayloadIntegrity) {
  CompositeRegister<Blob> reg(2, 1, Blob{});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 20000; ++i) {
      Blob b;
      b.words.fill(i);
      reg.update(0, b);
    }
    stop.store(true);
  });
  std::vector<Item<Blob>> items;
  while (!stop.load()) {
    reg.scan_items(0, items);
    const Blob& b = items[0].val;
    for (std::uint64_t w : b.words) ASSERT_EQ(w, b.words[0]);
  }
  writer.join();
}

// Property sweep on the simulator: every (shape, backend, seed) cell
// yields a Shrinking-Lemma-clean history.
struct SimParam {
  int c;
  int r;
  bool tagged;
  std::uint64_t seed;
};

class SimPropertySweep : public ::testing::TestWithParam<SimParam> {};

TEST_P(SimPropertySweep, HistoryClean) {
  const SimParam p = GetParam();
  sched::RandomPolicy policy(p.seed);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 6;
  cfg.scans_per_reader = 6;
  lin::History h;
  if (p.tagged) {
    CompositeRegister<std::uint64_t, registers::TaggedCell> reg(p.c, p.r, 0);
    h = lin::run_sim_workload(reg, policy, cfg);
  } else {
    CompositeRegister<std::uint64_t> reg(p.c, p.r, 0);
    h = lin::run_sim_workload(reg, policy, cfg);
  }
  const lin::CheckResult result = lin::check_shrinking_lemma(h);
  EXPECT_TRUE(result.ok) << result.violation;
}

std::vector<SimParam> sim_params() {
  std::vector<SimParam> out;
  for (int c : {1, 2, 3}) {
    for (int r : {1, 2}) {
      for (bool tagged : {false, true}) {
        for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
          out.push_back(SimParam{c, r, tagged, seed * (tagged ? 7 : 1) +
                                                   static_cast<std::uint64_t>(
                                                       c * 10 + r)});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimPropertySweep,
                         ::testing::ValuesIn(sim_params()));

// Shapes past the Y[0] record's inline bounds (16 readers, 8
// components), so the heap-fallback storage runs under the checker too:
// at C = 3, R = 16 the inner levels have 17 and 18 reader slots; at
// C = 9 the outer record's ss has 9 items. Both Y[0] backends. (The
// native workload's spin barrier can hang under TSan at 12+ threads on
// 4 cores, so the free-running check of these shapes is BlobShapes.)
TEST(CompositePropertyTest, PastInlineBoundsSimHistoryClean) {
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = 6;
  cfg.scans_per_reader = 6;
  for (const auto& [c, r] : {std::pair{3, 16}, std::pair{9, 1}}) {
    const std::uint64_t seed = static_cast<std::uint64_t>(c * 100 + r);
    sched::RandomPolicy hazard_policy(seed);
    CompositeRegister<std::uint64_t> hazard(c, r, 0);
    const lin::CheckResult h = lin::check_shrinking_lemma(
        lin::run_sim_workload(hazard, hazard_policy, cfg));
    EXPECT_TRUE(h.ok) << "C=" << c << " R=" << r << ": " << h.violation;
    sched::RandomPolicy tagged_policy(seed + 1);
    CompositeRegister<std::uint64_t, registers::TaggedCell> tagged(c, r, 0);
    const lin::CheckResult t = lin::check_shrinking_lemma(
        lin::run_sim_workload(tagged, tagged_policy, cfg));
    EXPECT_TRUE(t.ok) << "tagged C=" << c << " R=" << r << ": "
                      << t.violation;
  }
}

// The 128-byte Blob across components and readers, inside and past the
// inline bounds: every component of every scan is a whole Blob some
// Write wrote (or the initial one), tagged with that Write's id, and no
// reader ever sees a component's id go backwards.
class BlobShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BlobShapes, ScansReturnWholeBlobsInOrder) {
  const auto [c, r] = GetParam();
  CompositeRegister<Blob> reg(c, r, Blob{});
  std::vector<std::thread> threads;
  for (int k = 0; k < c; ++k) {
    threads.emplace_back([&reg, k] {
      for (std::uint64_t i = 1; i <= 400; ++i) {
        Blob b;
        b.words.fill((static_cast<std::uint64_t>(k + 1) << 32) | i);
        reg.update(k, b);
      }
    });
  }
  for (int j = 0; j < r; ++j) {
    threads.emplace_back([&reg, c, j] {
      std::vector<Item<Blob>> items;
      std::vector<std::uint64_t> last(static_cast<std::size_t>(c), 0);
      for (int n = 0; n < 200; ++n) {
        reg.scan_items(j, items);
        ASSERT_EQ(items.size(), static_cast<std::size_t>(c));
        for (int k = 0; k < c; ++k) {
          const Item<Blob>& it = items[static_cast<std::size_t>(k)];
          const std::uint64_t want =
              it.id == 0 ? 0
                         : (static_cast<std::uint64_t>(k + 1) << 32) | it.id;
          for (std::uint64_t w : it.val.words) ASSERT_EQ(w, want);
          ASSERT_GE(it.id, last[static_cast<std::size_t>(k)]);
          last[static_cast<std::size_t>(k)] = it.id;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

INSTANTIATE_TEST_SUITE_P(Shapes, BlobShapes,
                         ::testing::Values(std::pair{3, 2}, std::pair{3, 16},
                                           std::pair{9, 1}));

// Reader-slot independence: concurrent scans on distinct slots do not
// perturb each other's exact op counts (wait-freedom is per-slot).
TEST(CompositePropertyTest, ReaderSlotsIndependent) {
  CompositeRegister<std::uint64_t> reg(3, 4, 0);
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load()) {
      ++i;
      reg.update(static_cast<int>(i % 3), i);
    }
  });
  for (int j = 0; j < 4; ++j) {
    readers.emplace_back([&, j] {
      std::vector<Item<std::uint64_t>> items;
      for (int n = 0; n < 2000; ++n) {
        OpWindow win;
        reg.scan_items(j, items);
        ASSERT_EQ(win.delta().total(),
                  (CompositeRegister<std::uint64_t>::read_cost(3, 4)));
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

}  // namespace
}  // namespace compreg::core

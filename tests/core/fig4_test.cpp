// Reproduces the paper's Figure 4 executions (and the remaining two
// branches of Reader statement 8) with exact scripted schedules on the
// deterministic simulator.
//
// Configuration C=2, R=1. Shared-access maps (one schedule grant = one
// base-register access):
//   Reader scan:  [0]=stmt0 read Y0(x), [1]=stmt2 write Z,
//                 [2]=stmt3 read Y0(a), [3]=stmt4 inner scan (b),
//                 [4]=stmt5 read Y0(c), [5]=stmt6 inner scan (d),
//                 [6]=stmt7 read Y0(e)
//   0-Write:      [0]=stmt2 read Z, [1]=stmt3 write Y0,
//                 [2]=stmt4 inner scan, [3]=stmt7 write Y0
//   1-Write:      [0]=write Y[1]   (base case of the recursion)
//
// Process ids: 0 = reader (one scan), 1 = Writer 0, 2 = Writer 1.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/composite_register.h"
#include "lin/shrinking_checker.h"
#include "lin/wing_gong.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"

namespace compreg::core {
namespace {

struct Fig4Run {
  std::vector<Item<std::uint64_t>> scan_result;
  lin::History history;
};

// Runs: reader does one scan; Writer 0 performs `w0_writes` 0-Writes of
// values 101,102,...; Writer 1 performs `w1_writes` 1-Writes of values
// 201,202,.... The script orders every shared access.
Fig4Run run_script(const std::vector<int>& script, int w0_writes,
                   int w1_writes) {
  Fig4Run out;
  sched::ScriptPolicy policy(script);
  sched::SimScheduler sim(policy);
  auto reg = std::make_shared<CompositeRegister<std::uint64_t>>(2, 1, 0);
  lin::HistoryRecorder rec(2, {0, 0}, 3);

  sim.spawn([&, reg] {
    lin::ReadRec r;
    r.proc = 0;
    r.start = rec.clock().tick();
    reg->scan_items(0, out.scan_result);
    r.end = rec.clock().tick();
    for (const auto& item : out.scan_result) {
      r.ids.push_back(item.id);
      r.values.push_back(item.val);
    }
    rec.record_read(0, r);
  });
  sim.spawn([&, reg] {
    for (int i = 1; i <= w0_writes; ++i) {
      lin::WriteRec w;
      w.component = 0;
      w.value = 100 + static_cast<std::uint64_t>(i);
      w.proc = 1;
      w.start = rec.clock().tick();
      w.id = reg->update(0, w.value);
      w.end = rec.clock().tick();
      rec.record_write(1, w);
    }
  });
  sim.spawn([&, reg] {
    for (int i = 1; i <= w1_writes; ++i) {
      lin::WriteRec w;
      w.component = 1;
      w.value = 200 + static_cast<std::uint64_t>(i);
      w.proc = 2;
      w.start = rec.clock().tick();
      w.id = reg->update(1, w.value);
      w.end = rec.clock().tick();
      rec.record_write(2, w);
    }
  });
  sim.run();
  EXPECT_FALSE(policy.divergence()) << "script does not fit the execution";
  out.history = rec.merge();
  return out;
}

void expect_valid(const Fig4Run& run) {
  const lin::CheckResult sl = lin::check_shrinking_lemma(run.history);
  EXPECT_TRUE(sl.ok) << sl.violation;
  const lin::CheckResult wg = lin::check_wing_gong(run.history);
  EXPECT_TRUE(wg.ok) << wg.violation;
}

// Figure 4(a): three 0-Writes overlap the scan's collect window; a full
// 0-Write (w^{+1} in the paper) lies completely inside [r:3, r:7], so
// the reader detects e.seq[1,j] = newseq and returns w^{+1}'s embedded
// snapshot.
TEST(Fig4Test, CaseA_ReaderAdoptsOverlappingWritersSnapshot) {
  const std::vector<int> script = {
      0, 0, 0,        // r: x, Z, a   (r:3 done)
      2,              // Writer 1 write #1 (id 1) — lands in w's snapshot
      1, 1, 1, 1,     // w    (0-Write id 1), completely after r:3
      1, 1, 1, 1,     // w+1  (0-Write id 2), completely inside [r:3,r:7]
      2,              // Writer 1 write #2 (id 2) — after w+1's snapshot
      1, 1,           // w+2: reads Z (sees newseq), writes Y0 (stmt 3)
      0, 0, 0, 0,     // r: b, c, d, e  => statement 8 case 1
      1, 1,           // w+2 finishes
  };
  const Fig4Run run = run_script(script, /*w0_writes=*/3, /*w1_writes=*/2);
  // The reader returns w+1's snapshot: component 0 = w+1 itself (id 2),
  // component 1 = Writer 1's first write (id 1) — NOT the later id-2
  // 1-Write that is already in Y[1] when the reader resumes.
  ASSERT_EQ(run.scan_result.size(), 2u);
  EXPECT_EQ(run.scan_result[0].id, 2u);
  EXPECT_EQ(run.scan_result[0].val, 102u);
  EXPECT_EQ(run.scan_result[1].id, 1u);
  EXPECT_EQ(run.scan_result[1].val, 201u);
  expect_valid(run);
}

// Figure 4(b): Writer 0's statement 3 executes exactly twice inside
// [r:3, r:7] and the Z read of the middle write predates r:2, so the
// reader sees e.wc = a.wc (+) 2 and returns the middle write's
// embedded snapshot.
TEST(Fig4Test, CaseB_WriteCounterDetectsTwoInterveningWrites) {
  const std::vector<int> script = {
      1, 1, 1, 1,     // v (0-Write id 1) completes before the scan
      2,              // Writer 1 write #1 (id 1)
      0,              // r: x  (sees v)
      1,              // v+1: reads Z *before* r writes it
      0, 0,           // r: Z := newseq, a (= v, wc 1)
      1, 1, 1,        // v+1: stmt 3 (wc 2), inner scan, stmt 7
      1, 1,           // v+2: reads Z, stmt 3 (wc 0 = 1 (+) 2)
      0, 0, 0, 0,     // r: b, c, d, e  => statement 8 case 2
      1, 1,           // v+2 finishes
  };
  const Fig4Run run = run_script(script, /*w0_writes=*/3, /*w1_writes=*/1);
  // Returns v+1's snapshot: component 0 = v+1 (id 2), component 1 =
  // Writer 1's write (id 1).
  ASSERT_EQ(run.scan_result.size(), 2u);
  EXPECT_EQ(run.scan_result[0].id, 2u);
  EXPECT_EQ(run.scan_result[0].val, 102u);
  EXPECT_EQ(run.scan_result[1].id, 1u);
  EXPECT_EQ(run.scan_result[1].val, 201u);
  expect_valid(run);
}

// Statement 8, third branch (paper Section 4.1 "third and final
// case"): no statement 3 between r:3 and r:5, so a.wc = c.wc and the
// reader returns its own first collect (a.item, b).
TEST(Fig4Test, CaseC_QuietFirstWindowReturnsOwnCollect) {
  const std::vector<int> script = {
      1, 1, 1, 1,     // w1 (0-Write id 1) completes before the scan
      2,              // Writer 1 write #1 (id 1)
      0, 0, 0, 0, 0,  // r: x, Z, a, b, c   (quiet window: a.wc == c.wc)
      1, 1,           // w2: reads Z, stmt 3 — after r:5, before r:7
      0, 0,           // r: d, e  => statement 8 case 3
      1, 1,           // w2 finishes
  };
  const Fig4Run run = run_script(script, /*w0_writes=*/2, /*w1_writes=*/1);
  ASSERT_EQ(run.scan_result.size(), 2u);
  EXPECT_EQ(run.scan_result[0].id, 1u);  // a.item = w1
  EXPECT_EQ(run.scan_result[0].val, 101u);
  EXPECT_EQ(run.scan_result[1].id, 1u);  // b = Writer 1's write
  EXPECT_EQ(run.scan_result[1].val, 201u);
  expect_valid(run);
}

// Statement 8, fourth branch: one statement 3 lands between r:3 and
// r:5 (a.wc != c.wc) but none between r:5 and r:7, so the reader
// returns its second collect (c.item, d).
TEST(Fig4Test, CaseD_QuietSecondWindowReturnsSecondCollect) {
  const std::vector<int> script = {
      1, 1, 1, 1,     // w1 (id 1) completes before the scan
      2,              // Writer 1 write #1 (id 1)
      0, 0, 0, 0,     // r: x, Z, a, b
      1, 1,           // w2: reads Z, stmt 3 — between r:4 and r:5
      0, 0, 0,        // r: c, d, e  => statement 8 case 4
      1, 1,           // w2 finishes
  };
  const Fig4Run run = run_script(script, /*w0_writes=*/2, /*w1_writes=*/1);
  ASSERT_EQ(run.scan_result.size(), 2u);
  EXPECT_EQ(run.scan_result[0].id, 2u);  // c.item = w2 (stmt-3 value)
  EXPECT_EQ(run.scan_result[0].val, 102u);
  EXPECT_EQ(run.scan_result[1].id, 1u);  // d = Writer 1's write
  EXPECT_EQ(run.scan_result[1].val, 201u);
  expect_valid(run);
}

}  // namespace
}  // namespace compreg::core

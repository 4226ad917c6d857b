// E6 — Figure 4 replays: the paper's two example executions (and the
// remaining two branches of Reader statement 8), reproduced step for
// step on the deterministic scheduler, with a printed narrative.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/composite_register.h"
#include "sched/policy.h"
#include "sched/sim_scheduler.h"
#include "util/assert.h"

namespace {

using compreg::core::CompositeRegister;
using compreg::core::Item;

struct Outcome {
  std::vector<Item<std::uint64_t>> scan;
  std::vector<int> trace;
};

Outcome run(const std::vector<int>& script, int w0_writes, int w1_writes) {
  compreg::sched::ScriptPolicy policy(script);
  compreg::sched::SimScheduler sim(policy);
  auto reg = std::make_shared<CompositeRegister<std::uint64_t>>(2, 1, 0);
  Outcome out;
  sim.spawn([&, reg] { reg->scan_items(0, out.scan); });
  sim.spawn([&, reg] {
    for (int i = 1; i <= w0_writes; ++i) {
      reg->update(0, 100 + static_cast<std::uint64_t>(i));
    }
  });
  sim.spawn([&, reg] {
    for (int i = 1; i <= w1_writes; ++i) {
      reg->update(1, 200 + static_cast<std::uint64_t>(i));
    }
  });
  sim.run();
  COMPREG_CHECK(!policy.divergence(), "script does not fit the execution");
  out.trace = sim.trace();
  return out;
}

void report(const char* name, const char* expectation, const Outcome& out,
            std::uint64_t want_id0, std::uint64_t want_id1) {
  std::printf("%s\n  %s\n  scan returned: component0=(val %" PRIu64
              ", write #%" PRIu64 ")  component1=(val %" PRIu64
              ", write #%" PRIu64 ")\n  result: %s\n\n",
              name, expectation, out.scan[0].val, out.scan[0].id,
              out.scan[1].val, out.scan[1].id,
              (out.scan[0].id == want_id0 && out.scan[1].id == want_id1)
                  ? "as the paper predicts"
                  : "UNEXPECTED");
}

}  // namespace

int main() {
  std::printf("E6: paper Figure 4 schedule replays (C=2, R=1; process 0 = "
              "reader, 1 = Writer 0, 2 = Writer 1)\n\n");

  report("Figure 4(a): a full 0-Write inside [r:3, r:7]",
         "reader must adopt the overlapping write w+1's embedded snapshot "
         "(e.seq[1,j] = newseq)",
         run({0, 0, 0, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 0, 0, 0, 0, 1, 1},
             3, 2),
         /*want_id0=*/2, /*want_id1=*/1);

  report("Figure 4(b): statement 3 exactly twice inside [r:3, r:7]",
         "reader must detect e.wc = a.wc (+) 2 and adopt the middle "
         "write's snapshot",
         run({1, 1, 1, 1, 2, 0, 1, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1},
             3, 1),
         /*want_id0=*/2, /*want_id1=*/1);

  report("Statement 8 case 3: quiet window [r:3, r:5]",
         "reader keeps its own first collect (a.item, b)",
         run({1, 1, 1, 1, 2, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1}, 2, 1),
         /*want_id0=*/1, /*want_id1=*/1);

  report("Statement 8 case 4: quiet window [r:5, r:7]",
         "reader keeps its second collect (c.item, d)",
         run({1, 1, 1, 1, 2, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1}, 2, 1),
         /*want_id0=*/2, /*want_id1=*/1);

  return 0;
}

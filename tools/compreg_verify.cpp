// compreg_verify: the verification driver.
//
// Runs executions of a chosen snapshot implementation and puts every
// execution's history through one check pipeline: the
// protocol-conformance analyzer (src/analysis; its findings fail the run
// under --conformance), then the paper's Shrinking Lemma (Section 3),
// then, with --witness, an explicit linearization. The first failing
// execution stops the run with a replayable artifact (--out) whose
// "# replay:" line reproduces it with one copy-paste.
//
// Two ways to pick the executions:
//
// Random sampling (the default) runs --iters executions, iteration i
// under a random simulator schedule seeded by --seed + i. --native runs
// them on free-running stressed threads instead, where the vector-clock
// race detector joins the analyzer; --impl mw drives the multi-writer
// reduction that way (3 writer processes). --stats prints the first
// execution's shape.
//
// --dpor explores EVERY simulator schedule with dynamic partial-order
// reduction (sched/dpor.h): one representative execution per
// Mazurkiewicz trace plus dynamically discovered race reversals, pruned
// by sleep sets. When the run prints
//
//   certified: all N schedules pass
//
// every reachable schedule of that configuration (under its fault
// plans) has been verified. A truncated exploration (--max-schedules,
// --depth-bound) instead prints "BOUNDED, NOT CERTIFIED": clean means
// nothing was found within the bound, not that nothing exists.
//   --symmetry readers quotients the space by permutations of the reader
//     processes (procs C..C+R-1 run identical programs on
//     interchangeable state), cutting it by up to R!. Rejected when a
//     fault plan targets a reader, and for --impl net with R >= 2
//     (reader endpoints seed their retry jitter by node id, so reader
//     programs are not step-isomorphic there). --cross-validate re-runs
//     the exploration unreduced and fails if the verdicts disagree.
//   --covering (implied by --symmetry readers) gives each execution's
//     Mazurkiewicz class a canonical signature; an execution whose class
//     was already analyzed spawns no further race reversals. The
//     certified claim is unchanged; it suppresses the re-explorations
//     sleep sets miss, which is what makes small --impl net
//     configurations certifiable at all.
//   --jobs N runs executions on N worker threads. Exploration is
//     deterministic by construction, so every statistic, banner and
//     witness is byte-identical across --jobs values; --certificate FILE
//     writes a timing-free certificate the suite diffs across --jobs 1/8.
//   --schedule CSV replays ONE exact schedule (the artifact's
//     "# schedule" line) instead of exploring; a schedule that does not
//     fit the configuration (a listed process cannot step there) is a
//     usage error.
//
// Fault injection works the same way in both modes. --plan (grammar in
// docs/fault_model.md) fixes a crash/stall/hang plan; otherwise
// --crash-prob/--stall permille rates derive one from the execution's
// seed. --impl net builds every base cell as an ABD quorum-replicated
// register on a simulated network of 2f+1 replicas (--net-f); its
// network plan is fixed by --net-plan (grammar in src/net/net_plan.h) or
// derived at --loss / --net-partition / --net-crash / --net-recover
// permille. --chaos turns on default rates: network faults for --impl
// net, process faults otherwise. Random sampling derives new plans for
// every iteration; --dpor derives one pair from --seed and applies it to
// every explored schedule (hang plans are rejected there: every schedule
// would wedge). The durability auditor's findings (ack-before-persist,
// amnesiac-reply) join the conformance report of every net execution;
// --amnesia ack|rejoin seeds those mutants so the checkers can be shown
// to catch them. A quorum-starved operation degrades to Unavailable,
// recorded as a pending (crash-like) operation.
//
// A watchdog thread turns a run that makes no progress for --watchdog
// seconds (0 disables) into an artifact naming the in-flight seed, plans
// and schedule prefix, with the conformance report up to the hang.
//
// Usage:
//   compreg_verify [--dpor]
//       [--impl anderson|afek|unbounded|doublecollect|fullstack|seqlock
//               |mutex|net|mw]
//       [--components N] [--readers N] [--ops N] [--seed N]
//       [--conformance] [--witness] [--out FILE] [--watchdog SECONDS]
//       [--chaos] [--crash-prob PERMILLE] [--stall PERMILLE] [--plan SPEC]
//       [--net-f F] [--loss PERMILLE] [--net-partition PERMILLE]
//       [--net-crash PERMILLE] [--net-recover PERMILLE] [--net-plan SPEC]
//       [--amnesia none|ack|rejoin]
//     random sampling only: [--iters N] [--native] [--stats] (--impl mw)
//     --dpor only: [--max-schedules N] [--depth-bound N]
//       [--symmetry off|readers] [--covering] [--cross-validate]
//       [--jobs N] [--certificate FILE] [--schedule CSV]
//
// Exit codes: 0 = clean (certified or bounded-clean under --dpor);
// 1 = violation (artifact written to --out) or cross-validation
// mismatch; 2 = watchdog timeout; 64 = usage error, including a flag of
// the other mode.
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race.h"
#include "core/multi_writer.h"
#include "fault/fault_plan.h"
#include "fault/fault_policy.h"
#include "lin/dump.h"
#include "lin/shrinking_checker.h"
#include "lin/stats.h"
#include "lin/witness.h"
#include "lin/workload.h"
#include "net/net_cell.h"
#include "sched/dpor.h"
#include "sched/policy.h"
#include "util/rng.h"
#include "verify_common.h"

namespace compreg::tools {
namespace {

// ---------------------------------------------------------------------------
// Options

struct Options {
  bool dpor = false;
  std::string impl = "anderson";
  int components = 3;
  int readers = 2;
  int ops = 10;
  std::uint64_t seed = 1;
  bool conformance = false;
  bool witness = false;
  unsigned watchdog_sec = 30;
  Artifact artifact;

  // Fault plans: fixed, or derived from each execution's seed at these
  // permille rates (unset = 0, or the --chaos default).
  bool chaos = false;
  std::optional<fault::FaultPlan> plan;
  std::optional<unsigned> crash_permille;
  std::optional<unsigned> stall_permille;
  int net_f = 1;
  std::optional<net::NetFaultPlan> net_plan;
  std::optional<unsigned> loss_permille;
  std::optional<unsigned> partition_permille;
  std::optional<unsigned> net_crash_permille;
  std::optional<unsigned> recover_permille;
  net::Amnesia amnesia = net::Amnesia::kNone;

  // Random sampling.
  std::uint64_t iters = 200;
  bool native = false;
  bool stats = false;

  // --dpor.
  std::uint64_t max_schedules = 1'000'000;
  int depth_bound = -1;  // < 0: unbounded
  sched::SymmetrySpec symmetry;
  bool covering = false;
  bool cross_validate = false;
  int jobs = 1;
  std::string certificate_path;
  std::vector<int> schedule;  // non-empty: replay this one schedule

  // Executions run on the deterministic simulator (not native threads).
  bool sim() const { return !native && impl != "mw"; }
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(kExitUsage);
}

unsigned parse_permille(const char* flag, const char* value) {
  const auto permille = parse_unsigned<unsigned>(flag, value);
  if (permille > 1000) bad_flag(flag, value);
  return permille;
}

fault::FaultPlan parse_plan(const char* flag, const char* value) {
  const auto plan = fault::FaultPlan::parse(value);
  if (!plan) bad_flag(flag, value);
  return *plan;
}

net::NetFaultPlan parse_net_plan(const char* flag, const char* value) {
  const auto plan = net::NetFaultPlan::parse(value);
  if (!plan) bad_flag(flag, value);
  return *plan;
}

constexpr std::pair<const char*, net::Amnesia> kAmnesiaNames[] = {
    {"none", net::Amnesia::kNone},
    {"ack", net::Amnesia::kAckBeforePersist},
    {"rejoin", net::Amnesia::kBlankRejoin},
};

net::Amnesia parse_amnesia(const char* flag, const char* value) {
  for (const auto& [name, amnesia] : kAmnesiaNames) {
    if (!std::strcmp(value, name)) return amnesia;
  }
  bad_flag(flag, value);
}

const char* amnesia_name(net::Amnesia amnesia) {
  for (const auto& [name, value] : kAmnesiaNames) {
    if (value == amnesia) return name;
  }
  return "?";
}

bool parse_symmetry(const char* flag, const char* value) {
  if (!std::strcmp(value, "readers")) return true;
  if (std::strcmp(value, "off") != 0) bad_flag(flag, value);
  return false;
}

std::string schedule_csv(const std::vector<int>& schedule) {
  std::ostringstream out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i != 0) out << ',';
    out << schedule[i];
  }
  return out.str();
}

std::vector<int> parse_schedule(const char* flag, const char* value) {
  std::vector<int> out;
  std::istringstream in(value);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    // A process id: digits only, few enough to fit an int.
    if (tok.empty() || tok.size() > 6 ||
        tok.find_first_not_of("0123456789") != std::string::npos) {
      bad_flag(flag, value);
    }
    out.push_back(std::stoi(tok));
  }
  if (out.empty()) bad_flag(flag, value);
  return out;
}

// ---------------------------------------------------------------------------
// Fault plans: one derivation for both modes

// The fault plans of one execution.
struct Plans {
  fault::FaultPlan proc;
  net::NetFaultPlan net;
};

template <typename Plan>
std::string text(const Plan& plan) {
  return plan.empty() ? std::string() : plan.to_string();
}

bool derives_plan(const Options& o) {
  return !o.plan && (o.crash_permille.value_or(0) > 0 ||
                     o.stall_permille.value_or(0) > 0);
}

bool derives_net_plan(const Options& o) {
  return !o.net_plan &&
         (o.loss_permille.value_or(0) > 0 ||
          o.partition_permille.value_or(0) > 0 ||
          o.net_crash_permille.value_or(0) > 0 ||
          o.recover_permille.value_or(0) > 0);
}

// The plans in force for the execution at `seed`: the fixed ones, or
// ones derived from the seed alone, so re-running with that seed (one
// random iteration, or --dpor) reproduces them.
Plans plans_for(const Options& o, std::uint64_t seed) {
  Plans plans;
  if (o.plan) {
    plans.proc = *o.plan;
  } else if (derives_plan(o)) {
    Rng rng(seed ^ 0xfa0175ab5eedull);
    const std::uint64_t est_points = static_cast<std::uint64_t>(o.ops) * 16 + 8;
    plans.proc = fault::FaultPlan::random(
        rng, o.components + o.readers, est_points,
        o.crash_permille.value_or(0), o.stall_permille.value_or(0));
  }
  if (o.net_plan) {
    plans.net = *o.net_plan;
  } else if (derives_net_plan(o)) {
    Rng rng(seed ^ 0x6e65745f5eedull);
    // Network steps dwarf schedule points: each base-register op is a
    // broadcast plus a poll loop, and the composite construction issues
    // many base ops per operation.
    const std::uint64_t est_net_steps = static_cast<std::uint64_t>(o.ops) * 400;
    plans.net = net::NetFaultPlan::random(
        rng, 2 * o.net_f + 1, est_net_steps, o.loss_permille.value_or(0),
        o.partition_permille.value_or(0), o.net_crash_permille.value_or(0),
        o.recover_permille.value_or(0));
  }
  return plans;
}

// ---------------------------------------------------------------------------
// Flag parsing and validation

// Exits 64 on a missing, malformed or contradictory flag, or on a flag
// of the other mode.
Options parse_options(int argc, char** argv) {
  Options o;
  std::optional<int> components;
  std::optional<int> ops;
  std::optional<unsigned> watchdog_sec;
  bool reader_symmetry = false;
  const char* random_flag = nullptr;  // a random-sampling-only flag seen
  const char* dpor_flag = nullptr;    // a --dpor-only flag seen
  FlagReader args(argc, argv, 1);
  while (args.next()) {
    if (args.is("--dpor")) {
      o.dpor = true;
    } else if (args.is("--impl")) {
      o.impl = args.value();
    } else if (args.is("--components")) {
      components = args.number<int>();
    } else if (args.is("--readers")) {
      o.readers = args.number<int>();
    } else if (args.is("--ops")) {
      ops = args.number<int>();
    } else if (args.is("--seed")) {
      o.seed = args.number<std::uint64_t>();
    } else if (args.is("--conformance")) {
      o.conformance = true;
    } else if (args.is("--witness")) {
      o.witness = true;
    } else if (args.is("--out")) {
      o.artifact.path = args.value();
    } else if (args.is("--watchdog")) {
      watchdog_sec = args.number<unsigned>();
    } else if (args.is("--chaos")) {
      o.chaos = true;
    } else if (args.is("--plan")) {
      o.plan = args.value(parse_plan);
    } else if (args.is("--crash-prob")) {
      o.crash_permille = args.value(parse_permille);
    } else if (args.is("--stall")) {
      o.stall_permille = args.value(parse_permille);
    } else if (args.is("--net-f")) {
      o.net_f = args.number<int>();
    } else if (args.is("--net-plan")) {
      o.net_plan = args.value(parse_net_plan);
    } else if (args.is("--loss")) {
      o.loss_permille = args.value(parse_permille);
    } else if (args.is("--net-partition")) {
      o.partition_permille = args.value(parse_permille);
    } else if (args.is("--net-crash")) {
      o.net_crash_permille = args.value(parse_permille);
    } else if (args.is("--net-recover")) {
      o.recover_permille = args.value(parse_permille);
    } else if (args.is("--amnesia")) {
      o.amnesia = args.value(parse_amnesia);
    } else if (args.is("--iters")) {
      random_flag = args.flag();
      o.iters = args.number<std::uint64_t>();
    } else if (args.is("--native")) {
      random_flag = args.flag();
      o.native = true;
    } else if (args.is("--stats")) {
      random_flag = args.flag();
      o.stats = true;
    } else if (args.is("--max-schedules")) {
      dpor_flag = args.flag();
      o.max_schedules = args.number<std::uint64_t>();
    } else if (args.is("--depth-bound")) {
      dpor_flag = args.flag();
      o.depth_bound = args.number<int>();
    } else if (args.is("--symmetry")) {
      dpor_flag = args.flag();
      reader_symmetry = args.value(parse_symmetry);
    } else if (args.is("--covering")) {
      dpor_flag = args.flag();
      o.covering = true;
    } else if (args.is("--cross-validate")) {
      dpor_flag = args.flag();
      o.cross_validate = true;
    } else if (args.is("--jobs")) {
      dpor_flag = args.flag();
      o.jobs = args.number<int>();
    } else if (args.is("--certificate")) {
      dpor_flag = args.flag();
      o.certificate_path = args.value();
    } else if (args.is("--schedule")) {
      dpor_flag = args.flag();
      o.schedule = args.value(parse_schedule);
    } else {
      usage(std::string("unknown flag ") + args.flag());
    }
  }
  if (!o.dpor && dpor_flag != nullptr) {
    usage(std::string(dpor_flag) + " needs --dpor");
  }
  if (o.dpor && random_flag != nullptr) {
    usage(std::string(random_flag) + " is random-sampling only (drop --dpor)");
  }
  // Certification explores every schedule of a small configuration;
  // sampling runs many larger ones.
  o.components = components.value_or(o.dpor ? 2 : 3);
  o.ops = ops.value_or(o.dpor ? 1 : 10);
  o.watchdog_sec = watchdog_sec.value_or(o.dpor ? 120 : 30);

  if (!known_impl(o.impl)) usage("unknown impl '" + o.impl + "'");
  if (o.components < 1 || o.readers < 1) {
    usage("need --components >= 1 and --readers >= 1");
  }
  const bool net = o.impl == "net";
  if (o.dpor && o.impl == "mw") {
    usage("--impl mw is native-threads-only; --dpor explores the "
          "deterministic simulator");
  }
  if (o.native && (o.impl == "fullstack" || net)) {
    usage(o.impl + " is simulator-only (its primitives rely on serialized "
                   "steps)");
  }
  if (!net && (o.net_f != 1 || o.net_plan || o.loss_permille ||
               o.partition_permille || o.net_crash_permille ||
               o.recover_permille || o.amnesia != net::Amnesia::kNone)) {
    usage("network flags (--net-f/--loss/--net-partition/--net-crash/"
          "--net-recover/--net-plan/--amnesia) require --impl net");
  }
  if (net && o.net_f < 1) usage("--net-f must be >= 1 (2f+1 replicas)");
  if (o.chaos && net) {
    // Network chaos: faults live in the transport, not the processes,
    // unless process faults are explicitly requested on top.
    if (!o.loss_permille) o.loss_permille = 100;
    if (!o.partition_permille) o.partition_permille = 150;
    if (!o.net_crash_permille) o.net_crash_permille = 150;
    if (!o.recover_permille) o.recover_permille = 150;
  } else if (o.chaos) {
    if (!o.crash_permille) o.crash_permille = 350;
    if (!o.stall_permille) o.stall_permille = 250;
  }
  if ((o.plan || derives_plan(o)) && !o.sim()) {
    usage("fault injection (--chaos/--crash-prob/--stall/--plan) requires "
          "the deterministic simulator (drop --native)");
  }
  if (!o.dpor) return o;

  if (o.jobs < 1) usage("--jobs must be >= 1");
  if (reader_symmetry) {
    o.symmetry.first = o.components;
    o.symmetry.count = o.readers;
    // R == 1 leaves the group trivial; class covering (identity orbit
    // dedup) is still sound and still prunes, so keep it on.
    o.covering = true;
  }
  if (o.symmetry.count > 6) {
    usage("--symmetry readers supports at most 6 readers (class-orbit "
          "signatures cost R! passes per execution)");
  }
  if (o.symmetry.active() && net) {
    usage("--symmetry readers is unsound for --impl net with --readers >= 2 "
          "(per-node jitter seeding breaks reader interchangeability); "
          "certify net configs with --readers 1 and --jobs instead");
  }
  if (o.cross_validate && !o.symmetry.active()) {
    usage("--cross-validate compares the symmetry-reduced engine against "
          "the unreduced one; it needs --symmetry readers and --readers >= 2");
  }
  const fault::FaultPlan plan = plans_for(o, o.seed).proc;
  if (!plan.hangs.empty()) {
    usage("hang plans cannot be explored (every schedule wedges); drop "
          "--dpor to exercise the watchdog");
  }
  // A plan that crashes or stalls a specific reader destroys the
  // readers' interchangeability; the engine would refuse too, but a
  // usage error is friendlier than a CHECK abort.
  bool targets_reader = false;
  for (const auto& c : plan.crashes) {
    targets_reader |= o.symmetry.member(c.proc);
  }
  for (const auto& s : plan.stalls) {
    targets_reader |= o.symmetry.member(s.proc);
  }
  if (o.symmetry.active() && targets_reader) {
    usage("--symmetry readers is unsound under a fault plan that targets a "
          "reader process (procs " + std::to_string(o.components) + ".." +
          std::to_string(o.components + o.readers - 1) +
          "); restrict the plan to writers or drop --symmetry");
  }
  return o;
}

// Names everything that determines the executions checked. --jobs is
// deliberately excluded: it only buys wall-clock, and certificates must
// not depend on it.
std::string config_line(const Options& o) {
  std::ostringstream cfg;
  cfg << "impl=" << o.impl << " C=" << o.components << " R=" << o.readers;
  if (o.dpor) {
    cfg << " ops=" << o.ops << " seed=" << o.seed
        << " max-schedules=" << o.max_schedules;
    if (o.depth_bound >= 0) cfg << " depth-bound=" << o.depth_bound;
    if (o.symmetry.active()) cfg << " symmetry=readers";
    if (o.covering) cfg << " +covering";
  } else {
    cfg << " iters=" << o.iters << " base_seed=" << o.seed << " ops=" << o.ops
        << " mode=" << (o.sim() ? "sim" : "native");
  }
  if (o.impl == "net") {
    cfg << " f=" << o.net_f << " replicas=" << (2 * o.net_f + 1);
  }
  if (o.amnesia != net::Amnesia::kNone) {
    cfg << " amnesia=" << amnesia_name(o.amnesia);
  }
  // --dpor applies one pair of plans to every schedule: print them.
  // Sampling derives new ones per iteration: print the rates.
  Plans shown;
  if (o.dpor) {
    shown = plans_for(o, o.seed);
  } else {
    if (derives_net_plan(o)) {
      cfg << " loss=" << o.loss_permille.value_or(0)
          << " net-partition=" << o.partition_permille.value_or(0)
          << " net-crash=" << o.net_crash_permille.value_or(0)
          << " net-recover=" << o.recover_permille.value_or(0);
    }
    if (derives_plan(o)) {
      cfg << " crash-prob=" << o.crash_permille.value_or(0)
          << " stall=" << o.stall_permille.value_or(0);
    }
    shown.proc = o.plan.value_or(fault::FaultPlan{});
    shown.net = o.net_plan.value_or(net::NetFaultPlan{});
  }
  if (!shown.proc.empty()) cfg << " plan=" << shown.proc.to_string();
  if (!shown.net.empty()) cfg << " net-plan=" << shown.net.to_string();
  if (o.conformance) cfg << " +conformance";
  if (o.witness) cfg << " +witness";
  return cfg.str();
}

// The one copy-pasteable command that replays a single execution. The
// concrete plans (and, under --dpor, the exact schedule) ride along, so
// the replay does not depend on the derivation flags.
std::string replay_command(const Options& o, std::uint64_t seed,
                           const std::string& plan, const std::string& net_plan,
                           const std::string& schedule) {
  std::ostringstream cmd;
  cmd << "compreg_verify" << (o.dpor ? " --dpor" : "") << " --impl " << o.impl
      << " --components " << o.components << " --readers " << o.readers
      << " --ops " << o.ops << " --seed " << seed;
  if (!o.dpor) cmd << " --iters 1";
  if (o.native) cmd << " --native";
  if (o.conformance) cmd << " --conformance";
  if (o.witness) cmd << " --witness";
  if (o.impl == "net") cmd << " --net-f " << o.net_f;
  if (o.amnesia != net::Amnesia::kNone) {
    cmd << " --amnesia " << amnesia_name(o.amnesia);
  }
  if (!plan.empty()) cmd << " --plan '" << plan << "'";
  if (!net_plan.empty()) cmd << " --net-plan '" << net_plan << "'";
  if (!schedule.empty()) cmd << " --schedule " << schedule;
  return cmd.str();
}

// ---------------------------------------------------------------------------
// Executions and the check pipeline

// One execution: its history, and the analyzer's report with the
// durability auditor's findings merged in.
struct Execution {
  lin::History history;
  analysis::AnalysisReport report;
};

// A simulator execution spawned on a SimScheduler. Members destroy in
// reverse order, so the recorder and snapshot go before the fabric whose
// SimNet the net cells reference.
struct SimRun {
  std::optional<net::ScopedNetFabric> fab;
  std::unique_ptr<core::Snapshot<std::uint64_t>> snap;
  std::shared_ptr<lin::HistoryRecorder> rec;

  // After the scheduler ran: the history and `session`'s report.
  Execution finish(const analysis::AnalysisSession& session) {
    Execution ex{rec->merge(), session.report()};
    if (fab) ex.report.merge_findings(fab->fabric().net().durable().report());
    return ex;
  }
};

// Spawns the standard workload on `sim`: writers are procs [0,C),
// readers [C,C+R). For --impl net the cells live on a fresh fabric whose
// network RNG is seeded from `seed`.
std::shared_ptr<SimRun> spawn_run(sched::SimScheduler& sim, const Options& o,
                                  const net::NetFaultPlan& net_plan,
                                  std::uint64_t seed) {
  auto run = std::make_shared<SimRun>();
  if (o.impl == "net") {
    net::NetConfig ncfg;
    ncfg.f = o.net_f;
    ncfg.amnesia = o.amnesia;
    run->fab.emplace(ncfg, net_plan, seed ^ 0x51b2e75eedull);
  }
  run->snap = make_impl(o.impl, o.components, o.readers);
  lin::WorkloadConfig cfg;
  cfg.writes_per_writer = o.ops;
  cfg.scans_per_reader = o.ops;
  run->rec = lin::spawn_sim_workload(sim, *run->snap, cfg);
  return run;
}

// Runs one whole simulator execution: `base` picks the schedule, the
// process fault plan is layered on top, and `session` observes it.
Execution run_sim(const Options& o, sched::SchedulePolicy& base,
                  const Plans& plans, std::uint64_t seed,
                  analysis::AnalysisSession& session) {
  std::optional<fault::FaultInjectingPolicy> faulty;
  sched::SchedulePolicy* policy = &base;
  if (!plans.proc.empty()) {
    faulty.emplace(base, plans.proc);
    policy = &*faulty;
  }
  sched::SimScheduler sim(*policy);
  session.reset();
  const auto run = spawn_run(sim, o, plans.net, seed);
  if (faulty) faulty->attach(sim);
  {
    sched::ScopedAccessObserver observe(&session);
    sim.run();
  }
  return run->finish(session);
}

// Runs one execution on free-running threads under seeded stress.
Execution run_native(const Options& o, std::uint64_t seed,
                     analysis::AnalysisSession& session) {
  session.reset();
  lin::History h;
  {
    sched::ScopedAccessObserver observe(&session);
    if (o.impl == "mw") {
      core::MultiWriterSnapshot<std::uint64_t> snap(o.components,
                                                    /*processes=*/3,
                                                    o.readers, 0);
      lin::MwWorkloadConfig cfg;
      cfg.writes_per_process = o.ops;
      cfg.scans_per_reader = o.ops;
      cfg.stress_permille = 150;
      cfg.seed = seed;
      h = lin::run_native_workload_mw(snap, cfg);
    } else {
      const auto snap = make_impl(o.impl, o.components, o.readers);
      lin::WorkloadConfig cfg;
      cfg.writes_per_writer = o.ops;
      cfg.scans_per_reader = o.ops;
      cfg.stress_permille = 150;
      cfg.seed = seed;
      h = lin::run_native_workload(*snap, cfg);
    }
  }
  return {std::move(h), session.report()};
}

// The first check an execution fails; kind == nullptr when it passes.
struct Verdict {
  const char* kind = nullptr;
  std::string detail;

  bool ok() const { return kind == nullptr; }
};

// The one check pipeline: conformance findings (when --conformance gates
// them), then the Shrinking Lemma, then (--witness) a linearization.
Verdict check_execution(const Options& o, const Execution& ex) {
  if (o.conformance && !ex.report.ok()) {
    return {"conformance findings", ex.report.findings.front().to_string()};
  }
  const lin::CheckResult result = lin::check_shrinking_lemma(ex.history);
  if (!result.ok) return {"violation", result.violation};
  if (o.witness) {
    const lin::Witness w = lin::build_linearization(ex.history);
    if (!w.ok) return {"witness failure", w.error};
  }
  return {};
}

void tally(lin::ConformanceCounters& total, const analysis::AnalysisReport& r) {
  total.cells += r.counters.cells;
  total.swmr_cells += r.counters.swmr_cells;
  total.swsr_cells += r.counters.swsr_cells;
  total.mrmw_cells += r.counters.mrmw_cells;
  total.reads += r.counters.reads;
  total.writes += r.counters.writes;
  total.findings += r.findings.size();
}

// Prints a failing execution, writes its replayable artifact, and
// returns the exit code.
int report_failure(const Options& o, const Verdict& v, std::uint64_t seed,
                   const Plans& plans, const std::string& schedule,
                   const Execution& ex) {
  std::string headline = v.kind;
  for (char& c : headline) c = static_cast<char>(std::toupper(c));
  std::printf("%s at seed %llu: %s\n", headline.c_str(),
              static_cast<unsigned long long>(seed), v.detail.c_str());
  if (!schedule.empty()) {
    std::printf("failing schedule: %s\n", schedule.c_str());
  }
  if (!plans.proc.empty()) {
    std::printf("fault plan: %s\n", plans.proc.to_string().c_str());
  }
  if (!plans.net.empty()) {
    std::printf("net fault plan: %s\n", plans.net.to_string().c_str());
  }
  if (o.conformance && !ex.report.ok()) {
    std::printf("%s", ex.report.text().c_str());
  }
  std::printf("# replayable history follows\n");
  lin::dump_history(ex.history, std::cout);
  const std::string plan = text(plans.proc);
  const std::string net_plan = text(plans.net);
  write_artifact(o.artifact, v.kind, seed, plan, net_plan, schedule,
                 replay_command(o, seed, plan, net_plan, schedule), v.detail,
                 &ex.history, ex.report.dump());
  return kExitViolation;
}

ReplayFn replay_fn(const Options& o) {
  return [&o](std::uint64_t seed, const std::string& plan,
              const std::string& net_plan, const std::string& schedule) {
    return replay_command(o, seed, plan, net_plan, schedule);
  };
}

// ---------------------------------------------------------------------------
// Random sampling

int run_random(const Options& o) {
  // The happens-before race detector only pays on free-running threads;
  // the simulator serializes execution, and the ownership rules cover it.
  analysis::AnalysisSession session(/*detect_races=*/!o.sim());
  std::atomic<std::uint64_t> progress{0};
  LiveState live;
  // The watchdog always dumps the analyzer's view of the hung iteration,
  // whether or not --conformance gates findings.
  Watchdog watchdog(o.watchdog_sec, o.artifact, progress, live, replay_fn(o),
                    [&session] { return session.report().dump(); });

  lin::ConformanceCounters conf_total;
  std::uint64_t pending_ops_seen = 0;
  for (std::uint64_t i = 0; i < o.iters; ++i) {
    const std::uint64_t seed = o.seed + i;
    const Plans plans = plans_for(o, seed);
    live.set(seed, text(plans.proc), text(plans.net));
    Execution ex;
    if (o.sim()) {
      sched::RandomPolicy policy(seed);
      ex = run_sim(o, policy, plans, seed, session);
    } else {
      ex = run_native(o, seed, session);
    }
    tally(conf_total, ex.report);
    const lin::HistoryStats hs = lin::compute_stats(ex.history);
    pending_ops_seen += hs.pending_writes + hs.pending_reads;
    if (o.stats && i == 0) {
      if (o.conformance) {
        std::printf("  first conformance: %s\n",
                    ex.report.counters.summary().c_str());
      }
      std::printf("  first history: %s\n", hs.summary().c_str());
    }
    const Verdict v = check_execution(o, ex);
    if (!v.ok()) return report_failure(o, v, seed, plans, "", ex);
    progress.fetch_add(1);
    if ((i + 1) % 50 == 0) {
      std::printf("  %llu/%llu clean\n", static_cast<unsigned long long>(i + 1),
                  static_cast<unsigned long long>(o.iters));
    }
  }
  if (o.plan || derives_plan(o) || o.net_plan || derives_net_plan(o)) {
    std::printf("all %llu executions linearizable (%llu crashed/unavailable "
                "ops recorded pending)\n",
                static_cast<unsigned long long>(o.iters),
                static_cast<unsigned long long>(pending_ops_seen));
  } else {
    std::printf("all %llu executions linearizable\n",
                static_cast<unsigned long long>(o.iters));
  }
  if (o.conformance) {
    std::printf("conformance totals: %s\n", conf_total.summary().c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --dpor

const char* verdict_name(const sched::DporResult& r) {
  if (!r.ok) return "violation";
  return r.certified() ? "certified" : "bounded-clean";
}

int run_dpor(const Options& o) {
  // One analyzer session per worker: each observes exactly its worker's
  // executions (tee'd off that worker's DPOR trace recorder), so
  // parallel workers never interleave their access streams.
  std::vector<std::unique_ptr<analysis::AnalysisSession>> sessions;
  for (int w = 0; w < o.jobs; ++w) {
    sessions.push_back(std::make_unique<analysis::AnalysisSession>(
        /*detect_races=*/false));
  }
  const Plans plans = plans_for(o, o.seed);
  std::atomic<std::uint64_t> progress{0};
  LiveState live;
  Watchdog watchdog(o.watchdog_sec, o.artifact, progress, live, replay_fn(o),
                    [&sessions] { return sessions[0]->report().dump(); });

  // Runs and checks one exact schedule on this thread (worker 0's
  // session): the --schedule mode, and the report of a failing schedule.
  // A schedule that names a process which cannot step there does not
  // describe an execution of this configuration: a usage error.
  const auto replay = [&](const std::vector<int>& script) -> int {
    live.set(o.seed, text(plans.proc), text(plans.net), schedule_csv(script));
    sched::ScriptPolicy policy(script);
    const Execution ex = run_sim(o, policy, plans, o.seed, *sessions[0]);
    progress.fetch_add(1);
    if (const auto& off = policy.divergence()) {
      std::fprintf(stderr,
                   "bad --schedule: %s (process %d is not runnable at step "
                   "%zu, counting from 0)\n",
                   schedule_csv(script).c_str(), off->process, off->step);
      return kExitUsage;
    }
    const Verdict v = check_execution(o, ex);
    if (v.ok()) return 0;
    return report_failure(o, v, o.seed, plans, schedule_csv(script), ex);
  };
  if (!o.schedule.empty()) {
    if (const int code = replay(o.schedule); code != 0) return code;
    std::printf("replayed schedule passes (%zu scripted steps)\n",
                o.schedule.size());
    return 0;
  }
  // A failing schedule the engine reports: replayed for the report and
  // artifact, so with --jobs > 1 they match the deterministic witness
  // rather than whichever failure a worker happened to see first.
  const auto report_schedule = [&](const std::vector<int>& script) {
    if (replay(script) == 0) {
      std::fprintf(stderr, "internal error: failing schedule %s passed on "
                   "replay\n", schedule_csv(script).c_str());
    }
    return kExitViolation;
  };

  std::mutex conf_mu;
  lin::ConformanceCounters conf_total;
  // One fresh workload per explored execution, checked by the verifier
  // the scenario returns (on the same worker).
  const sched::DporScenario scenario = [&](sched::SimScheduler& sim) {
    analysis::AnalysisSession& session =
        *sessions[static_cast<std::size_t>(sched::dpor_worker_id())];
    session.reset();
    auto run = spawn_run(sim, o, plans.net, o.seed);
    return [&o, &conf_mu, &conf_total, &session, run]() -> bool {
      const Execution ex = run->finish(session);
      const bool ok = check_execution(o, ex).ok();
      std::lock_guard<std::mutex> lock(conf_mu);
      tally(conf_total, ex.report);
      return ok;
    };
  };
  const auto explore = [&](const sched::SymmetrySpec& symmetry,
                           bool covering) {
    sched::DporOptions opts;
    opts.max_schedules = o.max_schedules;
    opts.depth_bound = o.depth_bound;
    opts.plan = plans.proc;
    opts.symmetry = symmetry;
    opts.class_covering = covering;
    opts.jobs = o.jobs;
    opts.tee_for_worker = [&](int w) -> sched::AccessObserver* {
      return sessions[static_cast<std::size_t>(w)].get();
    };
    opts.on_execution = [&](const std::vector<int>& prefix,
                            std::uint64_t done) {
      live.set(o.seed, text(plans.proc), text(plans.net),
               schedule_csv(prefix));
      progress.store(done + 1);
      if (done > 0 && done % 20000 == 0) {
        std::printf("  %llu schedules explored...\n",
                    static_cast<unsigned long long>(done));
        std::fflush(stdout);
      }
    };
    return sched::explore_dpor(scenario, opts);
  };

  if (o.jobs > 1) std::printf("  workers: %d\n", o.jobs);
  const auto t0 = std::chrono::steady_clock::now();
  const sched::DporResult result = explore(o.symmetry, o.covering);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto& st = result.stats;

  // Reduction report: the naive bound is astronomically large in
  // general, so report both it and the reduction factor in log10.
  const double explored_log10 =
      st.schedules > 0 ? std::log10(static_cast<double>(st.schedules)) : 0.0;
  std::printf("  schedules explored: %llu\n",
              static_cast<unsigned long long>(st.schedules));
  std::printf("  naive enumeration bound: ~10^%.1f (reduction ~10^%.1f)\n",
              st.naive_log10, st.naive_log10 - explored_log10);
  std::printf(
      "  backtrack points: %llu, sleep-set prunes: %llu, max points: %llu\n",
      static_cast<unsigned long long>(st.backtrack_points),
      static_cast<unsigned long long>(st.sleep_set_hits),
      static_cast<unsigned long long>(st.max_points));
  if (o.symmetry.active()) {
    std::printf("  symmetry remaps: %llu\n",
                static_cast<unsigned long long>(st.symmetry_remaps));
  }
  if (o.symmetry.active() || o.covering) {
    std::printf("  orbit hits (covered classes skipped): %llu\n",
                static_cast<unsigned long long>(st.orbit_hits));
  }
  std::printf("  wall time: %.2f s (%llu waves, %d worker%s)\n", wall,
              static_cast<unsigned long long>(st.waves), o.jobs,
              o.jobs == 1 ? "" : "s");
  if (o.conformance) {
    std::printf("conformance totals: %s\n", conf_total.summary().c_str());
  }

  if (!o.certificate_path.empty()) {
    // Timing-free and jobs-free by construction: byte-identical across
    // --jobs values for the same configuration (the suite diffs this).
    std::ofstream cert(o.certificate_path);
    cert << "# compreg_verify certificate\n"
         << "# " << o.artifact.config_line << "\n"
         << "verdict: " << verdict_name(result) << "\n"
         << "schedules: " << st.schedules << "\n"
         << "backtrack_points: " << st.backtrack_points << "\n"
         << "sleep_set_hits: " << st.sleep_set_hits << "\n"
         << "symmetry_remaps: " << st.symmetry_remaps << "\n"
         << "orbit_hits: " << st.orbit_hits << "\n"
         << "waves: " << st.waves << "\n"
         << "max_points: " << st.max_points << "\n";
    if (!result.ok) {
      cert << "violation_schedule: " << schedule_csv(result.violation_schedule)
           << "\n";
    }
  }
  if (!result.ok) return report_schedule(result.violation_schedule);

  if (o.cross_validate) {
    // Soundness check: the unreduced engine over the same configuration
    // must reach the same verdict. (Identical violation *sets* on seeded
    // mutants are proved by tests/analysis/symmetry_cross_test; here the
    // reduced run was clean, so the unreduced one must be too.) The
    // unreduced space is up to R! larger — budget-capped runs may
    // legitimately hit max-schedules, which still cross-validates as
    // long as nothing in the larger explored set fails.
    std::printf("cross-validating against the unreduced engine...\n");
    const sched::DporResult unreduced = explore(sched::SymmetrySpec{}, false);
    std::printf("  unreduced schedules: %llu (reduced: %llu, factor %.2fx)\n",
                static_cast<unsigned long long>(unreduced.stats.schedules),
                static_cast<unsigned long long>(st.schedules),
                st.schedules > 0
                    ? static_cast<double>(unreduced.stats.schedules) /
                          static_cast<double>(st.schedules)
                    : 0.0);
    if (!unreduced.ok) {
      std::printf(
          "SYMMETRY CROSS-VALIDATION FAILED: reduced engine certified clean "
          "but the unreduced engine did not (canonical form of its failing "
          "schedule: %s)\n",
          schedule_csv(sched::canonical_schedule(unreduced.violation_schedule,
                                                 o.symmetry))
              .c_str());
      return report_schedule(unreduced.violation_schedule);
    }
    if (unreduced.certified() != result.certified()) {
      // Reduced certified but unreduced truncated (or vice versa) is a
      // budget artifact, not a soundness failure — say so.
      std::printf(
          "  note: verdicts are %s (reduced) vs %s (unreduced); the engines "
          "agree nothing fails in the explored space\n",
          verdict_name(result), verdict_name(unreduced));
    } else {
      std::printf("cross-validation OK: both engines report %s\n",
                  verdict_name(result));
    }
  }

  if (result.certified()) {
    std::printf("certified: all %llu schedules pass%s\n",
                static_cast<unsigned long long>(st.schedules),
                o.symmetry.active() ? " (up to reader permutation)" : "");
  } else {
    std::printf(
        "BOUNDED, NOT CERTIFIED: exploration truncated (%s%s%s); clean "
        "within the bound, but unexplored schedules remain\n",
        st.exhausted ? "" : "max-schedules reached",
        (!st.exhausted && st.depth_limited) ? ", " : "",
        st.depth_limited ? "race reversal beyond depth bound" : "");
  }
  return 0;
}

}  // namespace
}  // namespace compreg::tools

int main(int argc, char** argv) {
  using compreg::tools::Options;
  Options o = compreg::tools::parse_options(argc, argv);
  o.artifact.config_line = compreg::tools::config_line(o);
  std::printf("compreg_verify: %s\n", o.artifact.config_line.c_str());
  return o.dpor ? compreg::tools::run_dpor(o) : compreg::tools::run_random(o);
}

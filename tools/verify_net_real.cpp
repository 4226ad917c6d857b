// verify_net_real: end-to-end certification of the REAL transport — a
// multi-process ABD register over UDS/TCP sockets with socket-level
// fault injection and kill-9 crash-recovery chaos.
//
// The process re-executes itself as the replica fleet: the harness
// spawns 2f+1 copies of this binary with `--replica` (fork+execv via
// net/real/supervisor.h), each running the real replica event loop over
// its own SocketTransport with durable state in a FileDurable. Client
// writer/reader threads in the harness process then drive the ABD
// protocol over their own transports while the harness
//
//   * injects the NetFaultPlan at every endpoint's socket boundary
//     (drop/delay/dup/reorder locally, partitions fleet-wide in
//     milliseconds since a shared monotonic epoch),
//   * SIGKILLs and restarts replicas mid-traffic (`--kills N`), waiting
//     for each victim's rejoin-and-catch-up before the next cycle,
//   * records every operation in a global logical-clock history.
//
// Afterwards it feeds the history through the crash-aware register
// atomicity checker (Unavailable writes are recorded *pending*: they
// may still take effect, they cannot un-happen) and runs the real
// durability audit: for every kill, the restarted replica's reloaded
// durable timestamp must cover every acknowledgment a client received
// from it before the kill — the persist-before-ack discipline checked
// against real SIGKILLs rather than simulated ones.
//
// `--kill-majority` demonstrates graceful degradation: with f+1
// replicas dead, every operation must degrade to an explicit
// Unavailable within its bounded retry budget — not hang, not return a
// value. `--bench-json` sweeps loss x f and emits BENCH_transport.json.
//
// Exit codes: 0 clean, 1 violation (artifact written), 2 watchdog hang,
// 64 usage.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lin/history.h"
#include "lin/register_checker.h"
#include "net/net_plan.h"
#include "net/real/client.h"
#include "net/real/fault_transport.h"
#include "net/real/replica.h"
#include "net/real/supervisor.h"
#include "net/real/transport.h"
#include "fleet_common.h"
#include "verify_common.h"

namespace {

using compreg::lin::kPendingEnd;
using compreg::lin::LogicalClock;
using compreg::lin::RegisterHistory;
using compreg::lin::RegRead;
using compreg::lin::RegWrite;
using compreg::net::Deadline;
using compreg::net::NetFaultPlan;
using compreg::net::real::FaultyTransport;
using compreg::net::real::ProcEvent;
using compreg::net::real::RealAbdClient;
using compreg::net::real::RealClientConfig;
using compreg::net::real::ReplicaConfig;
using compreg::net::real::SocketTransport;
using compreg::net::real::Supervisor;
using compreg::net::real::TransportConfig;
using compreg::net::real::TransportKind;
using compreg::tools::Artifact;
using compreg::tools::AuditStart;
using compreg::tools::epoch_to_ns;
using compreg::tools::Fleet;
using compreg::tools::FleetConfig;
using compreg::tools::kExitUsage;
using compreg::tools::kExitViolation;
using compreg::tools::LiveState;
using compreg::tools::mix_seed;
using compreg::tools::percentile_us;
using compreg::tools::run_replica_child;
using compreg::tools::SteadyPoint;
using compreg::tools::Watchdog;
using compreg::tools::write_artifact;

// ---------------------------------------------------------------------------
// Harness options

struct Options {
  int f = 1;
  std::uint64_t ops = 2000;  // writer operations
  int readers = 2;
  TransportKind kind = TransportKind::kUds;
  int base_port = 47600;
  std::string dir;  // empty: mkdtemp under /tmp
  std::string plan_text;
  int kills = 0;
  bool kill_majority = false;
  std::uint64_t seed = 1;
  unsigned attempt_ms = 15;
  unsigned max_attempts = 8;
  unsigned watchdog_sec = 120;
  std::string bench_json;  // when set: run the bench sweep instead
  Artifact artifact;

  int replicas() const { return 2 * f + 1; }
  const char* kind_name() const {
    return kind == TransportKind::kTcp ? "tcp" : "uds";
  }
  FleetConfig fleet_config() const {
    FleetConfig cfg;
    cfg.f = f;
    cfg.kind = kind;
    cfg.base_port = base_port;
    cfg.dir = dir;
    cfg.plan_text = plan_text;
    cfg.seed = seed;
    return cfg;
  }
};

std::string replay_command(const Options& opt) {
  std::ostringstream os;
  os << "verify_net_real --f " << opt.f << " --ops " << opt.ops
     << " --readers " << opt.readers << " --kind " << opt.kind_name()
     << " --kills " << opt.kills << " --seed " << opt.seed << " --attempt-ms "
     << opt.attempt_ms << " --max-attempts " << opt.max_attempts;
  if (!opt.plan_text.empty()) os << " --plan '" << opt.plan_text << "'";
  if (opt.kill_majority) os << " --kill-majority";
  os << "  # wall-clock chaos: replays the scenario, not the schedule";
  return os.str();
}

// ---------------------------------------------------------------------------
// Client workers

struct AckRec {
  int replica = -1;
  std::uint64_t ts = 0;
  std::int64_t t_ns = 0;
};

struct WorkerOut {
  std::vector<RegWrite> writes;
  std::vector<RegRead> reads;
  std::vector<AckRec> acks;
  std::vector<std::uint64_t> latencies_ns;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t pending_writes = 0;
  std::uint64_t value_mismatches = 0;
  std::uint64_t retries = 0;
  std::uint64_t frames_sent = 0;
};

RealClientConfig client_config(const Options& opt) {
  RealClientConfig cfg;
  cfg.f = opt.f;
  cfg.attempt_timeout = std::chrono::milliseconds(opt.attempt_ms);
  cfg.max_attempts = opt.max_attempts;
  return cfg;
}

TransportConfig client_transport(const Options& opt, const Fleet& fleet,
                                 int node) {
  TransportConfig cfg;
  cfg.kind = opt.kind;
  cfg.self = node;
  cfg.replicas = opt.replicas();
  cfg.dir = fleet.dir();
  cfg.base_port = static_cast<std::uint16_t>(opt.base_port);
  return cfg;
}

// The single writer: ts sequence 1..ops, value == ts (so a read's value
// is its write id and corruption is detectable).
void writer_main(const Options& opt, const Fleet& fleet, SteadyPoint epoch,
                 LogicalClock& clock, std::atomic<std::uint64_t>& progress,
                 std::atomic<std::uint64_t>& writes_done, WorkerOut& out) {
  SocketTransport socket(client_transport(opt, fleet, opt.replicas()));
  const NetFaultPlan plan =
      opt.plan_text.empty()
          ? NetFaultPlan{}
          : NetFaultPlan::parse(opt.plan_text).value_or(NetFaultPlan{});
  FaultyTransport net(socket, plan, mix_seed(opt.seed, 1), epoch);
  RealAbdClient client(net, client_config(opt), epoch);
  client.set_ack_hook([&](int replica, std::uint64_t ts, std::int64_t t_ns) {
    out.acks.push_back(AckRec{replica, ts, t_ns});
  });
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const std::uint64_t ts = client.next_write_ts();
    const std::uint64_t start = clock.tick();
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = client.try_write(ts, ts);
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t end = clock.tick();
    out.writes.push_back(RegWrite{ts, start, ok ? end : kPendingEnd});
    if (!ok) ++out.pending_writes;
    out.latencies_ns.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    progress.fetch_add(1, std::memory_order_relaxed);
    writes_done.fetch_add(1, std::memory_order_relaxed);
  }
  out.retries = client.stats().retries;
  out.frames_sent = socket.stats().sent;
}

void reader_main(const Options& opt, const Fleet& fleet, SteadyPoint epoch,
                 int reader_id, LogicalClock& clock,
                 std::atomic<std::uint64_t>& progress,
                 const std::atomic<bool>& stop, WorkerOut& out) {
  const int node = opt.replicas() + 1 + reader_id;
  SocketTransport socket(client_transport(opt, fleet, node));
  const NetFaultPlan plan =
      opt.plan_text.empty()
          ? NetFaultPlan{}
          : NetFaultPlan::parse(opt.plan_text).value_or(NetFaultPlan{});
  FaultyTransport net(socket, plan, mix_seed(opt.seed, node), epoch);
  RealAbdClient client(net, client_config(opt), epoch);
  client.set_ack_hook([&](int replica, std::uint64_t ts, std::int64_t t_ns) {
    out.acks.push_back(AckRec{replica, ts, t_ns});
  });
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint64_t start = clock.tick();
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = client.try_read();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t end = clock.tick();
    if (result.ok) {
      // value == write id by construction; a mismatch is corruption the
      // atomicity checker could never see (it only sees ids).
      if (result.val != result.ts) ++out.value_mismatches;
      out.reads.push_back(RegRead{result.ts, start, end});
      out.latencies_ns.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    } else {
      ++out.unavailable_reads;
    }
    progress.fetch_add(1, std::memory_order_relaxed);
  }
  out.retries = client.stats().retries;
  out.frames_sent = socket.stats().sent;
}

// ---------------------------------------------------------------------------
// Durability audit (real kill-9 edition)
//
// Invariant: for every SIGKILL of replica v at supervisor time T, the
// next restart of v must reload durable_ts >= max{ts | some client
// received a STORE ack (v, ts) at time < T}. An ack received before the
// kill proves the persist completed before the kill (persist happens
// before the ack frame leaves), so the durable file must still hold it.
std::vector<std::string> audit_durability(
    const std::vector<ProcEvent>& events,
    const std::vector<AuditStart>& starts,
    const std::vector<AckRec>& acks, int* cycles_audited) {
  std::vector<std::string> findings;
  int audited = 0;
  for (const ProcEvent& ev : events) {
    if (ev.kind != ProcEvent::Kind::kKill) continue;
    std::uint64_t acked_before_kill = 0;
    for (const AckRec& ack : acks) {
      if (ack.replica == ev.node && ack.t_ns < ev.t_ns) {
        acked_before_kill = std::max(acked_before_kill, ack.ts);
      }
    }
    // First restart of this node after the kill.
    const AuditStart* restart = nullptr;
    for (const AuditStart& s : starts) {
      if (s.node == ev.node && s.t_ns > ev.t_ns &&
          (restart == nullptr || s.t_ns < restart->t_ns)) {
        restart = &s;
      }
    }
    if (restart == nullptr) continue;  // killed, never restarted: nothing owed
    ++audited;
    if (restart->existed == 0 && acked_before_kill > 0) {
      std::ostringstream os;
      os << "durability: replica " << ev.node
         << " restarted with NO durable file but had acked ts "
         << acked_before_kill << " before the kill";
      findings.push_back(os.str());
      continue;
    }
    if (restart->durable_ts < acked_before_kill) {
      std::ostringstream os;
      os << "durability: replica " << ev.node << " restarted with durable_ts "
         << restart->durable_ts << " < acked ts " << acked_before_kill
         << " (ack received " << "before the SIGKILL at t_ns=" << ev.t_ns
         << ") — persist-before-ack violated";
      findings.push_back(os.str());
    }
  }
  if (cycles_audited != nullptr) *cycles_audited = audited;
  return findings;
}

// ---------------------------------------------------------------------------
// Chaos run (the default mode)

int run_chaos(const Options& opt, LiveState& live,
              std::atomic<std::uint64_t>& progress) {
  const SteadyPoint epoch = std::chrono::steady_clock::now();
  live.set(opt.seed, "", opt.plan_text);

  Fleet fleet(opt.fleet_config(), epoch);
  if (!fleet.start()) return kExitViolation;
  if (!fleet.wait_all_serving(std::chrono::milliseconds(15000))) {
    write_artifact(opt.artifact, "fleet startup failure", opt.seed, "",
                   opt.plan_text, "", replay_command(opt),
                   "a replica never logged 'serving' within 15s of spawn",
                   nullptr);
    return kExitViolation;
  }
  progress.fetch_add(1);

  LogicalClock clock;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> writes_done{0};
  WorkerOut writer_out;
  std::vector<WorkerOut> reader_out(static_cast<std::size_t>(opt.readers));

  std::thread writer([&] {
    writer_main(opt, fleet, epoch, clock, progress, writes_done, writer_out);
  });
  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(opt.readers));
  for (int j = 0; j < opt.readers; ++j) {
    readers.emplace_back([&, j] {
      reader_main(opt, fleet, epoch, j, clock, progress, stop,
                  reader_out[static_cast<std::size_t>(j)]);
    });
  }

  // Kill-9 chaos: spread `kills` cycles across the writer's op stream,
  // one victim at a time, each cycle waiting for the victim's rejoin
  // (its next 'serving' audit line) before arming the next.
  std::vector<std::string> findings;
  for (int k = 0; k < opt.kills; ++k) {
    const std::uint64_t threshold =
        opt.ops * static_cast<std::uint64_t>(k + 1) /
        static_cast<std::uint64_t>(opt.kills + 1);
    while (writes_done.load(std::memory_order_relaxed) < threshold &&
           writer.joinable() &&
           writes_done.load(std::memory_order_relaxed) < opt.ops) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int victim = k % opt.replicas();
    const int seen = fleet.serving_count(victim);
    std::printf("chaos: kill-9 cycle %d/%d -> replica %d\n", k + 1, opt.kills,
                victim);
    fleet.sup().kill9(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // downtime
    fleet.spawn(victim);
    progress.fetch_add(1);
    if (!fleet.wait_serving(victim, seen + 1,
                            std::chrono::milliseconds(30000))) {
      std::ostringstream os;
      os << "recovery: replica " << victim
         << " did not rejoin (no new 'serving' line) within 30s of restart";
      findings.push_back(os.str());
      break;
    }
    progress.fetch_add(1);
  }

  writer.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  fleet.sup().terminate_all(std::chrono::milliseconds(2000));

  // Assemble and check the global history.
  RegisterHistory history;
  history.writes = writer_out.writes;
  std::uint64_t reads_total = 0;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t mismatches = 0;
  std::vector<AckRec> all_acks = writer_out.acks;
  for (const WorkerOut& r : reader_out) {
    history.reads.insert(history.reads.end(), r.reads.begin(), r.reads.end());
    reads_total += r.reads.size();
    unavailable_reads += r.unavailable_reads;
    mismatches += r.value_mismatches;
    all_acks.insert(all_acks.end(), r.acks.begin(), r.acks.end());
  }
  const auto lin = compreg::lin::check_register_atomicity(history);
  if (!lin.ok) {
    findings.push_back("linearizability: " + lin.violation);
  }
  if (mismatches != 0) {
    findings.push_back("corruption: " + std::to_string(mismatches) +
                       " reads returned val != ts");
  }

  int cycles_audited = 0;
  const auto durability =
      audit_durability(fleet.sup().events(), fleet.starts(), all_acks,
                       &cycles_audited);
  findings.insert(findings.end(), durability.begin(), durability.end());

  std::printf(
      "history: writes=%" PRIu64 " (pending %" PRIu64 ") reads=%" PRIu64
      " (unavailable %" PRIu64 ")\n",
      static_cast<std::uint64_t>(history.writes.size()),
      writer_out.pending_writes, reads_total, unavailable_reads);
  std::printf("lin: %s\n", lin.ok ? "OK" : lin.violation.c_str());
  std::printf("durability: %s (%d kill cycle%s audited, %zu acks)\n",
              durability.empty() ? "OK" : "VIOLATION", cycles_audited,
              cycles_audited == 1 ? "" : "s", all_acks.size());

  if (!findings.empty()) {
    std::ostringstream dump;
    for (const std::string& f : findings) dump << f << "\n";
    write_artifact(opt.artifact, "violation", opt.seed, "", opt.plan_text, "",
                   replay_command(opt), findings.front(), nullptr,
                   dump.str());
    std::printf("verify_net_real: FAIL (%zu finding%s)\n", findings.size(),
                findings.size() == 1 ? "" : "s");
    return kExitViolation;
  }
  std::printf("verify_net_real: PASS\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Kill-majority mode: explicit Unavailable degradation, never a hang

int run_kill_majority(const Options& opt, LiveState& live,
                      std::atomic<std::uint64_t>& progress) {
  const SteadyPoint epoch = std::chrono::steady_clock::now();
  live.set(opt.seed, "", opt.plan_text);
  Fleet fleet(opt.fleet_config(), epoch);
  if (!fleet.start()) return kExitViolation;
  if (!fleet.wait_all_serving(std::chrono::milliseconds(15000))) {
    std::fprintf(stderr, "fleet startup failure\n");
    return kExitViolation;
  }

  SocketTransport socket(client_transport(opt, fleet, opt.replicas()));
  FaultyTransport net(socket, NetFaultPlan{}, opt.seed, epoch);
  RealAbdClient client(net, client_config(opt), epoch);

  // Warmup: with the full fleet up, writes must succeed.
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t ts = client.next_write_ts();
    if (!client.try_write(ts, ts)) {
      std::fprintf(stderr, "warmup write %d failed with full fleet\n", i);
      return kExitViolation;
    }
    progress.fetch_add(1);
  }

  // Kill a majority: f+1 of 2f+1 replicas.
  for (int node = 0; node <= opt.f; ++node) fleet.sup().kill9(node);
  std::printf("kill-majority: %d of %d replicas SIGKILLed\n", opt.f + 1,
              opt.replicas());

  // Every further operation must degrade to explicit Unavailable within
  // its bounded retry budget. The watchdog guards against hangs; the
  // per-op bound below guards against unbounded-but-moving retries.
  const auto per_op_budget = std::chrono::milliseconds(
      static_cast<std::int64_t>(opt.max_attempts) *
      (static_cast<std::int64_t>(opt.attempt_ms) + 64 + 32) * 4);
  std::uint64_t unavailable = 0;
  const std::uint64_t attempts = std::min<std::uint64_t>(opt.ops, 50);
  for (std::uint64_t i = 0; i < attempts; ++i) {
    const std::uint64_t ts = client.next_write_ts();
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = client.try_write(ts, ts);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    progress.fetch_add(1);
    if (ok) {
      std::fprintf(stderr,
                   "kill-majority: write %" PRIu64
                   " claimed success without a quorum\n",
                   i);
      return kExitViolation;
    }
    if (elapsed > per_op_budget) {
      std::fprintf(stderr,
                   "kill-majority: write %" PRIu64 " took longer than the "
                   "retry budget allows (not a bounded degradation)\n",
                   i);
      return kExitViolation;
    }
    ++unavailable;
  }
  const auto read = client.try_read();
  if (read.ok) {
    std::fprintf(stderr, "kill-majority: read claimed success\n");
    return kExitViolation;
  }
  std::printf("kill-majority: %" PRIu64 "/%" PRIu64
              " writes and 1/1 reads degraded to explicit Unavailable "
              "(bounded, no hangs, no wrong values)\n",
              unavailable, attempts);
  std::printf("verify_net_real: PASS\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Bench sweep: loss x f -> BENCH_transport.json

struct BenchRow {
  unsigned loss_permille = 0;
  int f = 1;
  std::uint64_t ops = 0;
  double secs = 0;
  double p50_us = 0;
  double p99_us = 0;
  double retries_per_op = 0;
  double msgs_per_op = 0;
  std::uint64_t pending = 0;
  std::uint64_t unavailable_reads = 0;
};

int run_bench(Options opt, std::atomic<std::uint64_t>& progress) {
  const unsigned losses[] = {0, 10, 100};  // permille: 0%, 1%, 10%
  const int fs[] = {1, 2};
  std::vector<BenchRow> rows;
  int cell = 0;
  for (const int f : fs) {
    for (const unsigned loss : losses) {
      Options cfg = opt;
      cfg.f = f;
      cfg.plan_text = loss == 0 ? "" : "drop:" + std::to_string(loss);
      cfg.base_port = opt.base_port + 16 * cell;
      ++cell;
      const SteadyPoint epoch = std::chrono::steady_clock::now();
      Fleet fleet(cfg.fleet_config(), epoch);
      if (!fleet.start("bench-l" + std::to_string(loss) + "-f" +
                       std::to_string(f))) {
        return kExitViolation;
      }
      if (!fleet.wait_all_serving(std::chrono::milliseconds(15000))) {
        std::fprintf(stderr, "bench fleet startup failure\n");
        return kExitViolation;
      }
      LogicalClock clock;
      std::atomic<bool> stop{false};
      std::atomic<std::uint64_t> writes_done{0};
      WorkerOut writer_out;
      std::vector<WorkerOut> reader_out(1);
      const auto t0 = std::chrono::steady_clock::now();
      std::thread writer([&] {
        writer_main(cfg, fleet, epoch, clock, progress, writes_done,
                    writer_out);
      });
      std::thread reader([&] {
        reader_main(cfg, fleet, epoch, 0, clock, progress, stop,
                    reader_out[0]);
      });
      writer.join();
      stop.store(true);
      reader.join();
      const auto t1 = std::chrono::steady_clock::now();
      fleet.sup().terminate_all(std::chrono::milliseconds(2000));

      BenchRow row;
      row.loss_permille = loss;
      row.f = f;
      row.ops = cfg.ops + reader_out[0].reads.size() +
                reader_out[0].unavailable_reads;
      row.secs = std::chrono::duration<double>(t1 - t0).count();
      std::vector<std::uint64_t> lat = writer_out.latencies_ns;
      lat.insert(lat.end(), reader_out[0].latencies_ns.begin(),
                 reader_out[0].latencies_ns.end());
      row.p50_us = percentile_us(lat, 0.50);
      row.p99_us = percentile_us(lat, 0.99);
      const double ops_d = static_cast<double>(row.ops);
      row.retries_per_op =
          static_cast<double>(writer_out.retries + reader_out[0].retries) /
          ops_d;
      row.msgs_per_op = static_cast<double>(writer_out.frames_sent +
                                            reader_out[0].frames_sent) /
                        ops_d;
      row.pending = writer_out.pending_writes;
      row.unavailable_reads = reader_out[0].unavailable_reads;
      rows.push_back(row);
      std::printf("bench: loss=%u%%o f=%d ops=%" PRIu64
                  " thr=%.0f/s p50=%.1fus p99=%.1fus retries/op=%.4f "
                  "msgs/op=%.2f\n",
                  loss, f, row.ops, ops_d / row.secs, row.p50_us, row.p99_us,
                  row.retries_per_op, row.msgs_per_op);
    }
  }

  std::ofstream out(opt.bench_json);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.bench_json.c_str());
    return kExitViolation;
  }
  out << "{\n  \"schema_version\": 1,\n  \"bench\": \"transport\",\n"
      << "  \"kind\": \"" << opt.kind_name() << "\",\n"
      << "  \"writer_ops_per_cell\": " << opt.ops << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    out << "    {\"loss_permille\": " << r.loss_permille << ", \"f\": " << r.f
        << ", \"ops\": " << r.ops << ", \"throughput_ops_per_s\": "
        << static_cast<double>(r.ops) / r.secs << ", \"p50_us\": " << r.p50_us
        << ", \"p99_us\": " << r.p99_us
        << ", \"retries_per_op\": " << r.retries_per_op
        << ", \"msgs_per_op\": " << r.msgs_per_op
        << ", \"pending_writes\": " << r.pending
        << ", \"unavailable_reads\": " << r.unavailable_reads << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("bench: wrote %s\n", opt.bench_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--replica")) {
    return run_replica_child(argc, argv);
  }

  Options opt;
  opt.artifact.tool = "verify_net_real";
  opt.artifact.path = "verify_net_real_failure.txt";
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--f")) {
      opt.f = std::atoi(next("--f"));
    } else if (!std::strcmp(argv[i], "--ops")) {
      opt.ops = std::strtoull(next("--ops"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--readers")) {
      opt.readers = std::atoi(next("--readers"));
    } else if (!std::strcmp(argv[i], "--kind")) {
      opt.kind = !std::strcmp(next("--kind"), "tcp") ? TransportKind::kTcp
                                                     : TransportKind::kUds;
    } else if (!std::strcmp(argv[i], "--base-port")) {
      opt.base_port = std::atoi(next("--base-port"));
    } else if (!std::strcmp(argv[i], "--dir")) {
      opt.dir = next("--dir");
    } else if (!std::strcmp(argv[i], "--plan")) {
      opt.plan_text = next("--plan");
    } else if (!std::strcmp(argv[i], "--kills")) {
      opt.kills = std::atoi(next("--kills"));
    } else if (!std::strcmp(argv[i], "--kill-majority")) {
      opt.kill_majority = true;
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--attempt-ms")) {
      opt.attempt_ms =
          static_cast<unsigned>(std::atoi(next("--attempt-ms")));
    } else if (!std::strcmp(argv[i], "--max-attempts")) {
      opt.max_attempts =
          static_cast<unsigned>(std::atoi(next("--max-attempts")));
    } else if (!std::strcmp(argv[i], "--watchdog")) {
      opt.watchdog_sec =
          static_cast<unsigned>(std::atoi(next("--watchdog")));
    } else if (!std::strcmp(argv[i], "--bench-json")) {
      opt.bench_json = next("--bench-json");
    } else if (!std::strcmp(argv[i], "--out")) {
      opt.artifact.path = next("--out");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  if (opt.f < 1 || opt.readers < 0) {
    std::fprintf(stderr, "need --f >= 1 and --readers >= 0\n");
    return kExitUsage;
  }
  if (!opt.plan_text.empty()) {
    std::string error;
    if (!NetFaultPlan::parse(opt.plan_text, &error)) {
      std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
      return kExitUsage;
    }
  }
  bool made_tmp = false;
  if (opt.dir.empty()) {
    char tmpl[] = "/tmp/compreg-netreal-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return kExitViolation;
    }
    opt.dir = made;
    made_tmp = true;
  }
  {
    std::ostringstream os;
    os << "verify_net_real --f " << opt.f << " --ops " << opt.ops
       << " --readers " << opt.readers << " --kind " << opt.kind_name()
       << " --kills " << opt.kills << " --seed " << opt.seed;
    opt.artifact.config_line = os.str();
  }

  LiveState live;
  std::atomic<std::uint64_t> progress{0};
  const Options& opt_ref = opt;
  Watchdog watchdog(
      opt.watchdog_sec, opt.artifact, progress, live,
      [&opt_ref](std::uint64_t seed, const std::string&, const std::string&,
                 const std::string&) {
        Options replay = opt_ref;
        replay.seed = seed;
        return replay_command(replay);
      },
      nullptr);

  int rc = 0;
  if (!opt.bench_json.empty()) {
    rc = run_bench(opt, progress);
  } else if (opt.kill_majority) {
    rc = run_kill_majority(opt, live, progress);
  } else {
    rc = run_chaos(opt, live, progress);
  }
  if (made_tmp && rc == 0) {
    const std::string cmd = "rm -rf '" + opt.dir + "'";
    [[maybe_unused]] const int ignored = std::system(cmd.c_str());
  } else if (made_tmp) {
    std::printf("data dir kept for inspection: %s\n", opt.dir.c_str());
  }
  return rc;
}

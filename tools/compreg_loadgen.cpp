// compreg_loadgen: multi-client soak driver for the register service.
//
// The harness owns the whole stack: it spawns the 2f+1 replica fleet
// (re-executing itself with --replica, like verify_net_real), spawns a
// compreg_server daemon fronting that fleet, and then drives N
// concurrent client connections (ServerClient, UDS or TCP) with a mixed
// write/read workload while optionally SIGKILLing and restarting fleet
// replicas mid-traffic.
//
// Every operation is recorded in a global logical-clock history and the
// run is certified, not just measured:
//
//   * the funneled atomicity checker (lin/register_checker.h): the
//     server assigns every write a timestamp from one monotone
//     sequence, so timestamp order must be a valid serialization of the
//     client-observed intervals, and reads must be regular with no
//     new-old inversion;
//   * value integrity: payloads encode (client id, op seq), so every
//     timestamp must map to exactly one value and every read must
//     return the exact bits of the write that owns its timestamp;
//   * crash-awareness: a write whose response was lost (timeout) may
//     still take effect — it is resolved from straggler responses or
//     from reads that reveal its value, and enters the history as a
//     *pending* write (end = kPendingEnd) rather than being dropped;
//   * graceful degradation: Busy (admission control) and Unavailable
//     (spent fleet retry budget) are typed, counted, and bounded — a
//     hang trips the watchdog, exit 2;
//   * the server's own telemetry must survive shutdown with the
//     conservation invariant intact (parsed from its stats file), and a
//     final probe read must observe at least the largest acknowledged
//     write timestamp (end-to-end durability through kill-9 cycles).
//
// `--bench-json FILE` additionally emits BENCH_server.json
// (schema_version 1, validated by tools/check_bench_schema.py).
//
// Exit codes: 0 clean, 1 violation (artifact written), 2 watchdog hang,
// 64 usage.
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
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "lin/history.h"
#include "lin/register_checker.h"
#include "net/net_plan.h"
#include "net/real/supervisor.h"
#include "net/real/transport.h"
#include "net/real/wire.h"
#include "server/client.h"
#include "server/protocol.h"
#include "util/rng.h"
#include "fleet_common.h"
#include "verify_common.h"

namespace {

using compreg::lin::kPendingEnd;
using compreg::lin::LogicalClock;
using compreg::lin::RegisterHistory;
using compreg::lin::RegRead;
using compreg::lin::RegWrite;
using compreg::net::NetFaultPlan;
using compreg::net::real::MsgType;
using compreg::net::real::TransportKind;
using compreg::net::real::WireMsg;
using compreg::server::ClientConfig;
using compreg::server::make_read_req;
using compreg::server::make_write_req;
using compreg::server::ServerClient;
using compreg::tools::Artifact;
using compreg::tools::epoch_to_ns;
using compreg::tools::Fleet;
using compreg::tools::FleetConfig;
using compreg::tools::kExitUsage;
using compreg::tools::kExitViolation;
using compreg::tools::LiveState;
using compreg::tools::percentile_us;
using compreg::tools::run_replica_child;
using compreg::tools::SteadyPoint;
using compreg::tools::Watchdog;
using compreg::tools::write_artifact;
using compreg::Rng;

// ---------------------------------------------------------------------------
// Options

struct Options {
  int f = 1;
  TransportKind kind = TransportKind::kUds;
  int base_port = 47900;   // fleet-facing
  int front_port = 47950;  // client-facing (TCP only)
  std::string dir;         // empty: mkdtemp under /tmp
  std::string plan_text;   // socket-level fault plan (replicas + server)
  int clients = 8;
  std::uint64_t ops = 100;  // per client
  unsigned write_pct = 20;
  int kills = 0;
  std::uint64_t seed = 1;
  unsigned attempt_ms = 100;
  unsigned max_attempts = 8;
  std::uint32_t max_inflight = 128;
  unsigned op_timeout_ms = 10000;
  unsigned watchdog_sec = 300;
  std::string bench_json;
  std::string server_bin;  // default: <dir of this binary>/compreg_server
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
  os << "compreg_loadgen --f " << opt.f << " --kind " << opt.kind_name()
     << " --clients " << opt.clients << " --ops " << opt.ops
     << " --write-pct " << opt.write_pct << " --kills " << opt.kills
     << " --seed " << opt.seed << " --max-inflight " << opt.max_inflight;
  if (!opt.plan_text.empty()) os << " --plan '" << opt.plan_text << "'";
  os << "  # wall-clock soak: replays the scenario, not the schedule";
  return os.str();
}

std::string default_server_bin() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "compreg_server";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return "compreg_server";
  return path.substr(0, slash) + "/compreg_server";
}

// Payloads encode their writer: val = (client id << 32) | op seq. The
// initial value 0 decodes to client 0, which is the server itself and
// never a workload client, so it can't collide with a real write.
std::uint64_t encode_val(std::uint32_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) |
         (seq & 0xffffffffull);
}

// ---------------------------------------------------------------------------
// Client workers

struct LostWrite {
  std::uint64_t seq = 0;
  std::uint64_t val = 0;
  std::uint64_t start = 0;
  bool resolved = false;
};

struct ReadRec {
  RegRead read;
  std::uint64_t val = 0;
};

struct ClientOut {
  std::vector<RegWrite> writes;  // resolved: server timestamp known
  std::vector<std::uint64_t> write_vals;  // parallel to `writes`
  std::vector<ReadRec> reads;
  std::vector<LostWrite> lost_writes;
  std::vector<std::uint64_t> latencies_ns;  // completed (Ok) ops only
  std::uint64_t busy = 0;
  std::uint64_t unavailable_writes = 0;
  std::uint64_t unavailable_reads = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t proto_errors = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t max_acked_ts = 0;  // largest ts any kWriteOk carried
  bool connect_failed = false;
};

ClientConfig client_config(const Options& opt, const std::string& front_dir,
                           std::uint32_t id) {
  ClientConfig cfg;
  cfg.kind = opt.kind;
  cfg.front_dir = front_dir;
  cfg.front_base_port = opt.front_port;
  cfg.id = id;
  return cfg;
}

void client_main(const Options& opt, const std::string& front_dir,
                 std::uint32_t id, LogicalClock& clock,
                 std::atomic<std::uint64_t>& progress,
                 std::atomic<std::uint64_t>& ops_done, ClientOut& out) {
  ServerClient cli(client_config(opt, front_dir, id));
  if (!cli.connect(std::chrono::milliseconds(15000))) {
    out.connect_failed = true;
    ops_done.fetch_add(opt.ops, std::memory_order_relaxed);
    return;
  }
  Rng rng(compreg::tools::mix_seed(opt.seed, 1000 + static_cast<int>(id)));
  // Straggler responses, by op seq: an op we already timed out may still
  // be answered on this connection; its response is mined afterwards so
  // a lost-but-applied write re-enters the history as pending.
  std::unordered_map<std::uint64_t, WireMsg> stale;

  std::uint64_t seq = 0;
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const bool is_write = (rng() % 100) < opt.write_pct;
    ++seq;
    const std::uint64_t val = encode_val(id, seq);
    const WireMsg req =
        is_write ? make_write_req(id, seq, val) : make_read_req(id, seq);

    const std::uint64_t start = clock.tick();
    const auto t0 = std::chrono::steady_clock::now();
    if (!cli.send(req)) {
      ++out.disconnects;
      if (!cli.connect(std::chrono::milliseconds(10000)) || !cli.send(req)) {
        out.connect_failed = true;
        ops_done.fetch_add(opt.ops - i, std::memory_order_relaxed);
        return;
      }
    }

    const auto deadline = t0 + std::chrono::milliseconds(opt.op_timeout_ms);
    std::optional<WireMsg> resp;
    while (true) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      auto m = cli.recv(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now));
      if (!m) {
        if (!cli.connected()) {
          ++out.disconnects;
          if (!cli.connect(std::chrono::milliseconds(10000))) {
            out.connect_failed = true;
            ops_done.fetch_add(opt.ops - i, std::memory_order_relaxed);
            return;
          }
        }
        break;  // timed out (or reconnected: response is gone anyway)
      }
      if (m->op == seq) {
        resp = *m;
        break;
      }
      stale.emplace(m->op, *m);  // straggler from an earlier timed-out op
    }

    const std::uint64_t end = clock.tick();
    const auto t1 = std::chrono::steady_clock::now();
    if (!resp) {
      if (is_write) {
        out.lost_writes.push_back(LostWrite{seq, val, start, false});
      } else {
        ++out.read_timeouts;
      }
    } else {
      switch (resp->type) {
        case MsgType::kWriteOk:
          if (!is_write) {
            ++out.proto_errors;
            break;
          }
          out.writes.push_back(RegWrite{resp->ts, start, end});
          out.write_vals.push_back(val);
          out.max_acked_ts = std::max(out.max_acked_ts, resp->ts);
          out.latencies_ns.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
          break;
        case MsgType::kReadOk:
          if (is_write) {
            ++out.proto_errors;
            break;
          }
          out.reads.push_back(
              ReadRec{RegRead{resp->ts, start, end}, resp->val});
          out.latencies_ns.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()));
          break;
        case MsgType::kUnavailableResp:
          if (is_write) {
            // The assigned timestamp rode along: the write may yet take
            // effect, so it enters the history pending, exactly like a
            // crashed writer's abandoned operation.
            out.writes.push_back(RegWrite{resp->ts, start, kPendingEnd});
            out.write_vals.push_back(val);
            ++out.unavailable_writes;
          } else {
            ++out.unavailable_reads;
          }
          break;
        case MsgType::kBusyResp:
          // Rejected before any fleet traffic: no timestamp, no effect,
          // no history record.
          ++out.busy;
          break;
        default:
          ++out.proto_errors;
          break;
      }
    }
    progress.fetch_add(1, std::memory_order_relaxed);
    ops_done.fetch_add(1, std::memory_order_relaxed);
  }

  // Drain stragglers briefly, then resolve lost writes whose responses
  // eventually arrived: either outcome (Ok or Unavailable) proves the
  // server assigned a timestamp, so the write is recorded pending (its
  // client-observed interval never closed).
  const auto drain_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (cli.connected() && std::chrono::steady_clock::now() < drain_until) {
    auto m = cli.recv(std::chrono::milliseconds(50));
    if (!m) break;
    stale.emplace(m->op, *m);
  }
  for (LostWrite& lost : out.lost_writes) {
    const auto it = stale.find(lost.seq);
    if (it == stale.end()) continue;
    const WireMsg& m = it->second;
    if (m.type != MsgType::kWriteOk && m.type != MsgType::kUnavailableResp) {
      continue;
    }
    out.writes.push_back(RegWrite{m.ts, lost.start, kPendingEnd});
    out.write_vals.push_back(lost.val);
    if (m.type == MsgType::kWriteOk) {
      out.max_acked_ts = std::max(out.max_acked_ts, m.ts);
    }
    lost.resolved = true;
  }
}

// ---------------------------------------------------------------------------
// Server stats file (written by compreg_server at shutdown)

struct ServerStats {
  bool found = false;
  bool conservation_ok = false;
  std::uint64_t busy = 0;
  std::uint64_t batch_rounds = 0;
  std::uint64_t batched_reads = 0;
  std::uint64_t batch_count = 0;
  double batch_mean = 0;
};

ServerStats parse_server_stats(const std::string& path) {
  ServerStats st;
  std::ifstream in(path);
  if (!in) return st;
  st.found = true;
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long v = 0;
    unsigned long long cnt = 0;
    unsigned long long sum = 0;
    double mean = 0;
    if (std::sscanf(line.c_str(), "counter busy %llu", &v) == 1) {
      st.busy = v;
    } else if (std::sscanf(line.c_str(), "counter batch_rounds %llu", &v) ==
               1) {
      st.batch_rounds = v;
    } else if (std::sscanf(line.c_str(), "counter batched_reads %llu", &v) ==
               1) {
      st.batched_reads = v;
    } else if (std::sscanf(line.c_str(),
                           "histo batch_occupancy count=%llu sum=%llu "
                           "mean=%lf",
                           &cnt, &sum, &mean) == 3) {
      st.batch_count = cnt;
      st.batch_mean = mean;
    } else if (line == "conservation OK") {
      st.conservation_ok = true;
    }
  }
  return st;
}

// ---------------------------------------------------------------------------
// The soak run

int run_soak(const Options& opt, LiveState& live,
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

  const std::string front_dir = fleet.dir() + "/front";
  const std::string stats_path = fleet.dir() + "/server_stats.txt";
  const int server_node = opt.replicas();  // supervisor slot, not a replica
  {
    std::vector<std::string> argv = {
        opt.server_bin,
        "--kind", opt.kind_name(),
        "--f", std::to_string(opt.f),
        "--dir", fleet.dir(),
        "--front-dir", front_dir,
        "--base-port", std::to_string(opt.base_port),
        "--front-port", std::to_string(opt.front_port),
        "--max-inflight", std::to_string(opt.max_inflight),
        "--attempt-ms", std::to_string(opt.attempt_ms),
        "--max-attempts", std::to_string(opt.max_attempts),
        "--seed", std::to_string(opt.seed),
        "--epoch-ns", std::to_string(epoch_to_ns(epoch)),
        "--stats-out", stats_path,
    };
    if (!opt.plan_text.empty()) {
      argv.push_back("--plan");
      argv.push_back(opt.plan_text);
    }
    fleet.sup().spawn(server_node, argv);
  }

  // Warmup probe: the server is up once a read round-trips. Busy and
  // timeouts are retried — the daemon may still be seeding its write
  // timestamp from the initial collect.
  {
    ServerClient probe(client_config(opt, front_dir, 1000000));
    bool up = false;
    if (probe.connect(std::chrono::milliseconds(15000))) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(15);
      std::uint64_t probe_seq = 0;
      while (std::chrono::steady_clock::now() < until) {
        if (!probe.send(make_read_req(1000000, ++probe_seq))) break;
        auto m = probe.recv(std::chrono::milliseconds(1000));
        if (m && m->op == probe_seq && m->type == MsgType::kReadOk) {
          up = true;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (!up) {
      write_artifact(opt.artifact, "server startup failure", opt.seed, "",
                     opt.plan_text, "", replay_command(opt),
                     "no ReadOk from the daemon within 15s of spawn",
                     nullptr);
      return kExitViolation;
    }
  }
  progress.fetch_add(1);
  std::printf("loadgen: fleet + server up (kind=%s f=%d), driving %d "
              "clients x %" PRIu64 " ops\n",
              opt.kind_name(), opt.f, opt.clients, opt.ops);

  LogicalClock clock;
  std::atomic<std::uint64_t> ops_done{0};
  std::vector<ClientOut> outs(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(opt.clients));
  const auto t_start = std::chrono::steady_clock::now();
  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      client_main(opt, front_dir, static_cast<std::uint32_t>(c + 1), clock,
                  progress, ops_done, outs[static_cast<std::size_t>(c)]);
    });
  }

  // Kill-9 chaos over the fleet (never the server): spread cycles across
  // the op stream, wait for each victim's rejoin before the next.
  std::vector<std::string> findings;
  const std::uint64_t total_ops =
      static_cast<std::uint64_t>(opt.clients) * opt.ops;
  for (int k = 0; k < opt.kills; ++k) {
    const std::uint64_t threshold =
        total_ops * static_cast<std::uint64_t>(k + 1) /
        static_cast<std::uint64_t>(opt.kills + 1);
    while (ops_done.load(std::memory_order_relaxed) < threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const int victim = k % opt.replicas();
    const int seen = fleet.serving_count(victim);
    std::printf("loadgen: kill-9 cycle %d/%d -> replica %d\n", k + 1,
                opt.kills, victim);
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

  for (std::thread& t : threads) t.join();
  const auto t_end = std::chrono::steady_clock::now();

  // Global resolution: one timestamp, one value. Writes we know the
  // timestamp of (acked, degraded, or mined) pin ts -> val; a read that
  // returns a ts no write claims must decode to a client's unresolved
  // lost write, which it thereby resolves (pending). Anything else is
  // corruption or fabrication.
  std::map<std::uint64_t, std::uint64_t> ts_to_val;
  for (const ClientOut& out : outs) {
    for (std::size_t i = 0; i < out.writes.size(); ++i) {
      const auto [it, inserted] =
          ts_to_val.emplace(out.writes[i].id, out.write_vals[i]);
      if (!inserted && it->second != out.write_vals[i]) {
        findings.push_back("integrity: server assigned timestamp " +
                           std::to_string(out.writes[i].id) +
                           " to two different writes");
      }
    }
  }
  RegisterHistory history;
  for (const ClientOut& out : outs) {
    history.writes.insert(history.writes.end(), out.writes.begin(),
                          out.writes.end());
  }
  std::uint64_t value_mismatches = 0;
  std::uint64_t unknown_values = 0;
  for (ClientOut& out : outs) {
    for (const ReadRec& rec : out.reads) {
      const std::uint64_t ts = rec.read.id;
      const std::uint64_t val = rec.val;
      if (ts == 0) {
        if (val != 0) ++value_mismatches;
        history.reads.push_back(rec.read);
        continue;
      }
      const auto it = ts_to_val.find(ts);
      if (it != ts_to_val.end()) {
        if (it->second != val) ++value_mismatches;
        history.reads.push_back(rec.read);
        continue;
      }
      // Unclaimed timestamp: the value names its writer.
      const auto cid = static_cast<std::uint32_t>(val >> 32);
      const std::uint64_t wseq = val & 0xffffffffull;
      bool revealed = false;
      if (cid >= 1 && cid <= static_cast<std::uint32_t>(opt.clients)) {
        ClientOut& owner = outs[cid - 1];
        for (LostWrite& lost : owner.lost_writes) {
          if (!lost.resolved && lost.seq == wseq && lost.val == val) {
            history.writes.push_back(RegWrite{ts, lost.start, kPendingEnd});
            ts_to_val.emplace(ts, val);
            lost.resolved = true;
            revealed = true;
            break;
          }
        }
      }
      if (!revealed) ++unknown_values;
      history.reads.push_back(rec.read);
    }
  }
  if (value_mismatches != 0) {
    findings.push_back("integrity: " + std::to_string(value_mismatches) +
                       " reads returned a value not written at their "
                       "timestamp");
  }
  if (unknown_values != 0) {
    findings.push_back("integrity: " + std::to_string(unknown_values) +
                       " reads returned a value no client ever wrote");
  }

  // Tallies.
  std::uint64_t writes_ok = 0;
  std::uint64_t reads_ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t proto_errors = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t max_acked = 0;
  int failed_clients = 0;
  std::vector<std::uint64_t> latencies;
  for (const ClientOut& out : outs) {
    reads_ok += out.reads.size();
    busy += out.busy;
    unavailable += out.unavailable_writes + out.unavailable_reads;
    timeouts += out.read_timeouts;
    for (const LostWrite& lost : out.lost_writes) {
      if (!lost.resolved) ++timeouts;
    }
    proto_errors += out.proto_errors;
    disconnects += out.disconnects;
    max_acked = std::max(max_acked, out.max_acked_ts);
    if (out.connect_failed) ++failed_clients;
    latencies.insert(latencies.end(), out.latencies_ns.begin(),
                     out.latencies_ns.end());
  }
  for (const ClientOut& out : outs) {
    for (const RegWrite& w : out.writes) {
      if (w.end != kPendingEnd) ++writes_ok;
    }
  }
  if (failed_clients != 0) {
    findings.push_back("connectivity: " + std::to_string(failed_clients) +
                       " clients could not (re)connect to the daemon");
  }
  if (proto_errors != 0) {
    findings.push_back("protocol: " + std::to_string(proto_errors) +
                       " responses of the wrong type for their request");
  }
  if (timeouts * 20 > total_ops) {  // > 5%
    findings.push_back("liveness: " + std::to_string(timeouts) + " of " +
                       std::to_string(total_ops) +
                       " ops got no response within " +
                       std::to_string(opt.op_timeout_ms) + "ms (> 5%)");
  }

  // Durability probe: with the full fleet back, a fresh read must see at
  // least the largest acknowledged write timestamp — through every
  // kill-9 cycle. (Also exercises batched reads' freshness end-to-end.)
  if (max_acked > 0) {
    ServerClient probe(client_config(opt, front_dir, 1000001));
    std::uint64_t seen_ts = 0;
    bool got = false;
    if (probe.connect(std::chrono::milliseconds(5000))) {
      std::uint64_t probe_seq = 0;
      for (int attempt = 0; attempt < 20 && !got; ++attempt) {
        if (!probe.send(make_read_req(1000001, ++probe_seq))) break;
        auto m = probe.recv(std::chrono::milliseconds(2000));
        if (m && m->op == probe_seq && m->type == MsgType::kReadOk) {
          seen_ts = m->ts;
          got = true;
        }
      }
    }
    if (!got) {
      findings.push_back("durability: the post-run probe read never "
                         "completed against a full fleet");
    } else if (seen_ts < max_acked) {
      findings.push_back("durability: probe read returned ts " +
                         std::to_string(seen_ts) +
                         " < largest acknowledged write ts " +
                         std::to_string(max_acked));
    }
  }
  progress.fetch_add(1);

  // Graceful server shutdown: SIGTERM -> drain -> stats file.
  fleet.sup().terminate(server_node, std::chrono::milliseconds(15000));
  fleet.sup().terminate_all(std::chrono::milliseconds(2000));
  const ServerStats st = parse_server_stats(stats_path);
  if (!st.found) {
    findings.push_back("telemetry: the daemon wrote no stats file (crashed "
                       "or SIGKILLed before drain)");
  } else if (!st.conservation_ok) {
    findings.push_back("telemetry: conservation violated (ops_received != "
                       "writes_ok + reads_ok + unavailable + busy)");
  }

  // Certification: funneled atomicity over the assembled history.
  const auto lin = compreg::lin::check_register_atomicity_funneled(history);
  if (!lin.ok) findings.push_back("linearizability: " + lin.violation);

  const double secs = std::chrono::duration<double>(t_end - t_start).count();
  const std::uint64_t completed = writes_ok + reads_ok + unavailable + busy;
  const double thr = secs > 0 ? static_cast<double>(completed) / secs : 0;
  const double p50 = percentile_us(latencies, 0.50);
  const double p99 = percentile_us(latencies, 0.99);
  const double p999 = percentile_us(latencies, 0.999);
  std::printf("history: writes=%" PRIu64 " reads=%" PRIu64
              " (unavailable %" PRIu64 ", busy %" PRIu64 ", timeouts %" PRIu64
              ", disconnects %" PRIu64 ")\n",
              static_cast<std::uint64_t>(history.writes.size()),
              static_cast<std::uint64_t>(history.reads.size()), unavailable,
              busy, timeouts, disconnects);
  std::printf("lin: %s\n", lin.ok ? "OK" : lin.violation.c_str());
  std::printf("telemetry conservation: %s\n",
              st.found && st.conservation_ok ? "OK" : "VIOLATION");
  std::printf("soak: %" PRIu64 " ops in %.2fs = %.0f ops/s, p50=%.0fus "
              "p99=%.0fus p999=%.0fus, batch mean=%.2f over %" PRIu64
              " rounds\n",
              completed, secs, thr, p50, p99, p999, st.batch_mean,
              st.batch_rounds);

  if (!opt.bench_json.empty()) {
    std::ofstream out(opt.bench_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.bench_json.c_str());
      return kExitViolation;
    }
    out << "{\n  \"schema_version\": 1,\n  \"bench\": \"server\",\n"
        << "  \"rows\": [\n    {\"experiment\": \"E20\", \"kind\": \""
        << opt.kind_name() << "\", \"clients\": " << opt.clients
        << ", \"write_pct\": " << opt.write_pct << ", \"ops\": " << completed
        << ", \"secs\": " << secs << ", \"throughput_ops_per_s\": " << thr
        << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99
        << ", \"p999_us\": " << p999 << ", \"writes_ok\": " << writes_ok
        << ", \"reads_ok\": " << reads_ok
        << ", \"unavailable\": " << unavailable << ", \"unavailable_rate\": "
        << (completed > 0
                ? static_cast<double>(unavailable) /
                      static_cast<double>(completed)
                : 0)
        << ", \"busy\": " << busy << ", \"timeouts\": " << timeouts
        << ", \"batch_occupancy_mean\": " << st.batch_mean
        << ", \"batch_rounds\": " << st.batch_rounds
        << ", \"kills\": " << opt.kills << "}\n  ]\n}\n";
    std::printf("bench: wrote %s\n", opt.bench_json.c_str());
  }

  if (!findings.empty()) {
    std::ostringstream dump;
    for (const std::string& f : findings) dump << f << "\n";
    write_artifact(opt.artifact, "violation", opt.seed, "", opt.plan_text, "",
                   replay_command(opt), findings.front(), nullptr,
                   dump.str());
    std::printf("compreg_loadgen: FAIL (%zu finding%s)\n", findings.size(),
                findings.size() == 1 ? "" : "s");
    return kExitViolation;
  }
  std::printf("compreg_loadgen: PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--replica")) {
    return run_replica_child(argc, argv);
  }

  Options opt;
  opt.artifact.tool = "compreg_loadgen";
  opt.artifact.path = "compreg_loadgen_failure.txt";
  opt.server_bin = default_server_bin();
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
    } else if (!std::strcmp(argv[i], "--kind")) {
      opt.kind = !std::strcmp(next("--kind"), "tcp") ? TransportKind::kTcp
                                                     : TransportKind::kUds;
    } else if (!std::strcmp(argv[i], "--base-port")) {
      opt.base_port = std::atoi(next("--base-port"));
    } else if (!std::strcmp(argv[i], "--front-port")) {
      opt.front_port = std::atoi(next("--front-port"));
    } else if (!std::strcmp(argv[i], "--dir")) {
      opt.dir = next("--dir");
    } else if (!std::strcmp(argv[i], "--plan")) {
      opt.plan_text = next("--plan");
    } else if (!std::strcmp(argv[i], "--clients")) {
      opt.clients = std::atoi(next("--clients"));
    } else if (!std::strcmp(argv[i], "--ops")) {
      opt.ops = std::strtoull(next("--ops"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--write-pct")) {
      opt.write_pct = static_cast<unsigned>(std::atoi(next("--write-pct")));
    } else if (!std::strcmp(argv[i], "--kills")) {
      opt.kills = std::atoi(next("--kills"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--attempt-ms")) {
      opt.attempt_ms = static_cast<unsigned>(std::atoi(next("--attempt-ms")));
    } else if (!std::strcmp(argv[i], "--max-attempts")) {
      opt.max_attempts =
          static_cast<unsigned>(std::atoi(next("--max-attempts")));
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      opt.max_inflight =
          static_cast<std::uint32_t>(std::atoi(next("--max-inflight")));
    } else if (!std::strcmp(argv[i], "--op-timeout-ms")) {
      opt.op_timeout_ms =
          static_cast<unsigned>(std::atoi(next("--op-timeout-ms")));
    } else if (!std::strcmp(argv[i], "--watchdog")) {
      opt.watchdog_sec = static_cast<unsigned>(std::atoi(next("--watchdog")));
    } else if (!std::strcmp(argv[i], "--bench-json")) {
      opt.bench_json = next("--bench-json");
    } else if (!std::strcmp(argv[i], "--server-bin")) {
      opt.server_bin = next("--server-bin");
    } else if (!std::strcmp(argv[i], "--out")) {
      opt.artifact.path = next("--out");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return kExitUsage;
    }
  }
  if (opt.f < 1 || opt.clients < 1 || opt.ops < 1 || opt.write_pct > 100) {
    std::fprintf(stderr,
                 "need --f >= 1, --clients >= 1, --ops >= 1, "
                 "--write-pct in [0,100]\n");
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
    char tmpl[] = "/tmp/compreg-loadgen-XXXXXX";
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
    os << "compreg_loadgen --f " << opt.f << " --kind " << opt.kind_name()
       << " --clients " << opt.clients << " --ops " << opt.ops << " --kills "
       << opt.kills << " --seed " << opt.seed;
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

  const int rc = run_soak(opt, live, progress);
  if (made_tmp && rc == 0) {
    const std::string cmd = "rm -rf '" + opt.dir + "'";
    [[maybe_unused]] const int ignored = std::system(cmd.c_str());
  } else if (made_tmp) {
    std::printf("data dir kept for inspection: %s\n", opt.dir.c_str());
  }
  return rc;
}

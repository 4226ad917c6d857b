// The svc-read workload: 4 closed-loop connections, each with 1
// outstanding read, driving compreg_server over Unix-domain sockets,
// with every operation checked afterwards.
//
// Before the load, each connection runs a short seeded mix of writes and
// reads, so the register holds state written by every client and the
// checks have writes to verify. The measured window is reads only: every
// write waits on replica fsyncs, which a shared disk makes too unsteady
// to bound (README.md).
//
// One thread per connection. Each thread draws its op stream from the
// run seed; write payloads name their writer ((client id << 32) | seq),
// so every value a read returns can be traced to exactly one write.
#include <algorithm>
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "layers.h"
#include "lin/history.h"
#include "lin/register_checker.h"
#include "net/real/wire.h"
#include "server/client.h"
#include "server/protocol.h"
#include "stack.h"

namespace perfbench {
namespace {

using compreg::lin::kPendingEnd;
using compreg::lin::LogicalClock;
using compreg::lin::RegisterHistory;
using compreg::lin::RegRead;
using compreg::lin::RegWrite;
using compreg::net::real::MsgType;
using compreg::net::real::WireMsg;

constexpr int kConns = 4;
constexpr int kSeedOps = 64;       // seeded ops per connection, half writes
constexpr int kSetups = 61;        // set-ups per run; setup_s is their median
constexpr double kWarmupS = 1.0;   // reads driven but not measured
constexpr auto kOpTimeout = std::chrono::seconds(5);
constexpr auto kStartLimit = std::chrono::milliseconds(15000);

enum class Outcome : std::uint8_t { kOk, kUnavailable, kBusy, kTimeout, kProtocol };

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kUnavailable: return "unavailable";
    case Outcome::kBusy: return "busy";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kProtocol: return "protocol";
  }
  return "?";
}

struct Op {
  bool write = false;
  Outcome outcome = Outcome::kTimeout;  // until a response arrives
  std::uint64_t seq = 0;
  std::uint64_t val = 0;   // write payload
  std::uint64_t ts = 0;    // response timestamp
  std::uint64_t rval = 0;  // response value (reads)
  std::uint64_t start = 0;  // logical clock at invocation
  std::uint64_t end = 0;    // ... and at response
  std::int64_t t_send = 0;  // steady clock, ns
  std::int64_t t_sent = 0;  // send() returned
  std::int64_t t_recv = 0;
};

struct ConnOut {
  std::vector<Op> ops;
  std::size_t seed_ops = 0;   // ops[0, seed_ops) are the seeded mix
  std::uint64_t strays = 0;   // responses matching no outstanding op
  bool connect_failed = false;
};

std::uint64_t encode_val(std::uint32_t client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client) << 32) | (seq & 0xffffffffull);
}

// Sends one op and waits for its answer. False when the connection is
// no longer usable: a failed send, or no answer within kOpTimeout (the op
// stays a timeout).
bool do_op(compreg::server::ServerClient& cli, std::uint32_t id, bool write,
           std::uint64_t& seq, LogicalClock& clock, ConnOut& out) {
  Op op;
  op.write = write;
  op.seq = ++seq;
  op.val = encode_val(id, op.seq);
  const WireMsg req = write
                          ? compreg::server::make_write_req(id, op.seq, op.val)
                          : compreg::server::make_read_req(id, op.seq);
  op.start = clock.tick();
  op.t_send = now_ns();
  if (!cli.send(req)) {
    op.outcome = Outcome::kProtocol;
    out.ops.push_back(op);
    return false;
  }
  op.t_sent = now_ns();
  while (true) {
    const auto m = cli.recv(kOpTimeout);
    if (!m) {
      out.ops.push_back(op);
      return false;
    }
    if (m->op != op.seq) {
      ++out.strays;
      continue;
    }
    op.t_recv = now_ns();
    op.end = clock.tick();
    op.ts = m->ts;
    op.rval = m->val;
    switch (m->type) {
      case MsgType::kWriteOk:
        op.outcome = write ? Outcome::kOk : Outcome::kProtocol;
        break;
      case MsgType::kReadOk:
        op.outcome = write ? Outcome::kProtocol : Outcome::kOk;
        break;
      case MsgType::kUnavailableResp:
        op.outcome = Outcome::kUnavailable;
        break;
      case MsgType::kBusyResp:
        op.outcome = Outcome::kBusy;
        break;
      default:
        op.outcome = Outcome::kProtocol;
        break;
    }
    out.ops.push_back(op);
    return true;
  }
}

// The measured window, fixed once every connection has run its seeded
// ops.
struct Window {
  std::int64_t measure = 0;
  std::int64_t end = 0;
};

// One connection: kSeedOps seeded writes and reads, then, once every
// connection is past them, reads until the window ends.
template <class Barrier>
void conn_main(const std::string& front_dir, std::uint32_t id,
               std::uint64_t seed, Barrier& seeded, const Window& window,
               LogicalClock& clock, ConnOut& out) {
  compreg::server::ClientConfig cfg;
  cfg.front_dir = front_dir;
  cfg.id = id;
  compreg::server::ServerClient cli(cfg);
  if (!cli.connect(std::chrono::milliseconds(5000))) {
    out.connect_failed = true;
    seeded.arrive_and_drop();
    return;
  }
  compreg::Rng rng(mix_seed(seed, id));
  std::uint64_t seq = 0;
  bool ok = true;
  for (int i = 0; ok && i < kSeedOps; ++i) {
    ok = do_op(cli, id, (rng() & 1) != 0, seq, clock, out);
  }
  out.seed_ops = out.ops.size();
  if (!ok) {
    seeded.arrive_and_drop();
    return;
  }
  seeded.arrive_and_wait();
  while (ok && now_ns() < window.end) {
    ok = do_op(cli, id, false, seq, clock, out);
  }
}

// The daemon's shutdown telemetry (compreg_server --stats-out, the text
// exporter's `counter <name> <v>` and `histo <name> ... mean=<m>` lines).
struct ServerStats {
  bool found = false;
  bool conservation_ok = false;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> histo_means;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double mean(const std::string& name) const {
    const auto it = histo_means.find(name);
    return it == histo_means.end() ? 0 : it->second;
  }
};

ServerStats parse_server_stats(const std::string& path) {
  ServerStats st;
  std::ifstream in(path);
  if (!in) return st;
  st.found = true;
  std::string line;
  while (std::getline(in, line)) {
    char name[64] = {};
    unsigned long long v = 0;
    unsigned long long n = 0;
    unsigned long long sum = 0;
    double mean = 0;
    if (std::sscanf(line.c_str(), "counter %63s %llu", name, &v) == 2) {
      st.counters[name] = v;
    } else if (std::sscanf(line.c_str(),
                           "histo %63s count=%llu sum=%llu mean=%lf", name,
                           &n, &sum, &mean) == 4) {
      st.histo_means[name] = mean;
    } else if (line == "conservation OK") {
      st.conservation_ok = true;
    }
  }
  return st;
}

// Builds the register history and checks value integrity: every
// timestamp maps to exactly one write, and every read returns the exact
// payload of the write that owns its timestamp. A write whose response
// never came is entered pending if some read revealed its value.
RegisterHistory build_history(const std::vector<ConnOut>& outs,
                              std::vector<std::string>& findings,
                              std::uint64_t& max_acked) {
  RegisterHistory h;
  std::map<std::uint64_t, std::uint64_t> ts_to_val;
  std::map<std::uint64_t, const Op*> lost_by_val;
  std::uint64_t dup_ts = 0;
  for (const ConnOut& out : outs) {
    for (const Op& op : out.ops) {
      if (!op.write) continue;
      if (op.outcome == Outcome::kOk || op.outcome == Outcome::kUnavailable) {
        if (!ts_to_val.emplace(op.ts, op.val).second) ++dup_ts;
        const bool acked = op.outcome == Outcome::kOk;
        h.writes.push_back(RegWrite{op.ts, op.start, acked ? op.end : kPendingEnd});
        if (acked) max_acked = std::max(max_acked, op.ts);
      } else if (op.outcome != Outcome::kBusy) {
        lost_by_val.emplace(op.val, &op);
      }
    }
  }
  std::uint64_t mismatched = 0;
  std::uint64_t unknown = 0;
  for (const ConnOut& out : outs) {
    for (const Op& op : out.ops) {
      if (op.write || op.outcome != Outcome::kOk) continue;
      if (op.ts == 0) {
        if (op.rval != 0) ++mismatched;
      } else if (const auto it = ts_to_val.find(op.ts); it != ts_to_val.end()) {
        if (it->second != op.rval) ++mismatched;
      } else if (const auto lost = lost_by_val.find(op.rval);
                 lost != lost_by_val.end()) {
        h.writes.push_back(RegWrite{op.ts, lost->second->start, kPendingEnd});
        ts_to_val.emplace(op.ts, op.rval);
        lost_by_val.erase(lost);
      } else {
        ++unknown;
      }
      h.reads.push_back(RegRead{op.ts, op.start, op.end});
    }
  }
  if (dup_ts != 0) {
    findings.push_back(std::to_string(dup_ts) +
                       " write timestamps were assigned to two writes");
  }
  if (mismatched != 0) {
    findings.push_back(std::to_string(mismatched) +
                       " reads returned a value not written at their "
                       "timestamp");
  }
  if (unknown != 0) {
    findings.push_back(std::to_string(unknown) +
                       " reads returned a value no client wrote");
  }
  return h;
}

// End-to-end figures of ok reads over [from, to), each the median over
// the window's slices: throughput counts responses arriving in a slice,
// latencies count reads sent in it.
struct WindowStats {
  double throughput = 0;
  double read_p50_us = 0;
  double read_p90_us = 0;
  double read_p99_us = 0;
};

WindowStats window_stats(const std::vector<ConnOut>& outs, std::int64_t from,
                         std::int64_t to) {
  const Slices slices(from, to);
  const auto n = static_cast<std::size_t>(slices.count());
  std::vector<std::uint64_t> done(n, 0);
  std::vector<std::vector<double>> reads(n);
  for (const ConnOut& out : outs) {
    for (std::size_t k = out.seed_ops; k < out.ops.size(); ++k) {
      const Op& op = out.ops[k];
      if (op.outcome != Outcome::kOk) continue;
      if (const int i = slices.index(op.t_recv); i >= 0) ++done[static_cast<std::size_t>(i)];
      if (const int i = slices.index(op.t_send); i >= 0) {
        reads[static_cast<std::size_t>(i)].push_back(
            static_cast<double>(op.t_recv - op.t_send) / 1000.0);
      }
    }
  }
  WindowStats w;
  w.throughput = slices.median_rate(done);
  w.read_p50_us = Slices::median_quantile(reads, 0.50);
  w.read_p90_us = Slices::median_quantile(reads, 0.90);
  w.read_p99_us = Slices::median_quantile(reads, 0.99);
  return w;
}

// Latencies, in us, of the seeded writes that were acknowledged.
std::vector<double> seed_write_us(const std::vector<ConnOut>& outs) {
  std::vector<double> us;
  for (const ConnOut& out : outs) {
    for (std::size_t k = 0; k < out.seed_ops; ++k) {
      const Op& op = out.ops[k];
      if (op.write && op.outcome == Outcome::kOk) {
        us.push_back(static_cast<double>(op.t_recv - op.t_send) / 1000.0);
      }
    }
  }
  return us;
}

void write_spans(const std::string& path, const std::vector<ConnOut>& outs,
                 std::int64_t from, std::int64_t to) {
  std::ofstream f(path);
  for (std::size_t c = 0; c < outs.size(); ++c) {
    for (const Op& op : outs[c].ops) {
      if (op.t_send < from || op.t_send >= to) continue;
      f << "{\"conn\": " << c + 1 << ", \"seq\": " << op.seq
        << ", \"kind\": \"" << (op.write ? "write" : "read")
        << "\", \"outcome\": \"" << outcome_name(op.outcome)
        << "\", \"send_ns\": " << op.t_send - from
        << ", \"sent_ns\": " << op.t_sent - from
        << ", \"recv_ns\": " << (op.t_recv == 0 ? 0 : op.t_recv - from)
        << ", \"ts\": " << op.ts << "}\n";
    }
  }
}

}  // namespace

Result run_service(const Options& opt) {
  Result r;

  // Set-up, several times: spawn the fleet and the daemon, and time
  // until the first read through the daemon comes back. The last stack
  // stays up for the load.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();  // tears the previous one down, untimed
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(opt.server_bin,
                                    opt.run_dir + "/s" + std::to_string(k),
                                    mix_seed(opt.seed, 7 + k));
    if (!stack->start_fleet(kStartLimit) ||
        !stack->start_server(kStartLimit)) {
      r.findings.push_back("the fleet or the daemon did not come up");
      r.attempted = 1;
      r.failed = 1;
      return r;
    }
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  // The load: the seeded writes and reads, a warm-up of reads, then the
  // measured window (a traced run splits it into an untraced half and a
  // traced half).
  LogicalClock clock;
  std::vector<ConnOut> outs(kConns);
  Window window;
  std::barrier seeded(kConns, [&]() noexcept {
    window.measure = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
    window.end = window.measure + static_cast<std::int64_t>(opt.seconds) * 1000000000;
  });
  const std::int64_t t_begin = now_ns();
  const double cpu0 = process_cpu_s();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        conn_main(stack->front_dir(), static_cast<std::uint32_t>(c + 1),
                  opt.seed, seeded, window, clock,
                  outs[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (window.end == 0) {
    r.findings.push_back("the seeded ops did not complete");
    r.attempted = 1;
    r.failed = 1;
    return r;
  }
  const std::int64_t t_measure = window.measure;
  const std::int64_t t_end = window.end;
  const std::int64_t t_mid = opt.trace ? t_measure + (t_end - t_measure) / 2 : t_end;
  const double cpu_s = process_cpu_s() - cpu0;
  const double wall_s = static_cast<double>(now_ns() - t_begin) * 1e-9;

  // Tallies. A failure is anything but an answered op: Busy,
  // Unavailable, a timeout, or a protocol error.
  std::uint64_t strays = 0;
  for (const ConnOut& out : outs) {
    if (out.connect_failed) r.findings.push_back("a client could not connect");
    strays += out.strays;
    for (const Op& op : out.ops) {
      ++r.attempted;
      if (op.outcome != Outcome::kOk) ++r.failed;
    }
  }
  r.failed += strays;
  if (r.attempted == 0) {
    r.attempted = 1;
    r.failed = 1;
  }

  // Checks: value integrity, durability of acknowledged writes, the
  // daemon's telemetry conservation, and funneled atomicity.
  std::uint64_t max_acked = 0;
  const RegisterHistory history = build_history(outs, r.findings, max_acked);
  if (max_acked == 0) r.findings.push_back("no write was acknowledged");
  std::uint64_t final_ts = 0;
  if (!stack->read_through_server(std::chrono::milliseconds(5000), final_ts)) {
    r.findings.push_back("the post-run read never completed");
  } else if (final_ts < max_acked) {
    r.findings.push_back("the post-run read saw ts " + std::to_string(final_ts) +
                         " below the largest acknowledged ts " +
                         std::to_string(max_acked));
  }
  const double rss_mb = stack->peak_rss_mb();
  stack->stop_server();
  const ServerStats st = parse_server_stats(stack->stats_path());
  if (!st.found || !st.conservation_ok) {
    r.findings.push_back("the daemon's shutdown telemetry is missing or "
                         "does not conserve ops");
  }
  const std::int64_t lin0 = now_ns();
  const auto lin = compreg::lin::check_register_atomicity_funneled(history);
  const double lin_s = static_cast<double>(now_ns() - lin0) * 1e-9;
  if (!lin.ok) r.findings.push_back("atomicity: " + lin.violation);

  const WindowStats w = window_stats(outs, t_measure, t_mid);
  if (!opt.trace) {
    r.add("throughput_ops_s", w.throughput, "1/s");
    r.add("read_p50_us", w.read_p50_us, "us");
    r.add("read_p90_us", w.read_p90_us, "us");
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", rss_mb, "MiB");
    return r;
  }

  // Traced run: the ledger. Spans of the traced half go to a file; the
  // layer probes run on the same fleet once the daemon has stopped.
  write_spans(opt.span_path, outs, t_mid, t_end);
  const WindowStats traced = window_stats(outs, t_mid, t_end);
  const FleetLayers fl = probe_fleet_layers(*stack, std::max(max_acked, final_ts));
  if (!fl.ok) r.findings.push_back("the ABD probe against the idle fleet failed");
  stack.reset();

  const double ops = static_cast<double>(st.counter("writes_ok") +
                                         st.counter("reads_ok"));
  const double batch_rounds = static_cast<double>(st.counter("batch_rounds"));
  const double writebacks = std::max(
      0.0, static_cast<double>(st.counter("quorum_rounds")) -
               static_cast<double>(st.counter("writes_dequeued")) - batch_rounds);
  const double cores = static_cast<double>(std::thread::hardware_concurrency());
  std::vector<double> write_us = seed_write_us(outs);
  add_ledger(r,
             Ledger{
                 .server_read_overhead_us =
                     traced.read_p50_us - fl.abd_read_us,
                 .server_batch_occupancy_mean = st.mean("batch_occupancy"),
                 .server_write_queue_depth_mean = st.mean("queue_depth"),
                 .server_quorum_rounds_per_op =
                     ops > 0 ? static_cast<double>(st.counter("quorum_rounds")) / ops : 0,
                 .server_retries_per_op =
                     ops > 0 ? static_cast<double>(st.counter("retries")) / ops : 0,
                 .abd_writeback_skip_ratio =
                     batch_rounds > 0 ? 1.0 - writebacks / batch_rounds : 0,
                 .lin_check_s = lin_s,
                 .loadgen_cpu_frac = cpu_s / (wall_s * cores),
                 .loadgen_read_p99_us = w.read_p99_us,
                 .loadgen_write_p50_us = quantile(write_us, 0.50),
                 .loadgen_write_p99_us = quantile(write_us, 0.99),
                 .loadgen_error_rate = static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted),
                 .trace_overhead_frac =
                     w.throughput > 0 ? 1.0 - traced.throughput / w.throughput : 0,
             },
             fl);
  return r;
}

}  // namespace perfbench

#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/composite_register.h"
#include "net/real/client.h"
#include "net/real/durable_file.h"
#include "net/real/transport.h"
#include "prmw/prmw.h"
#include "registers/hazard_cell.h"
#include "registers/word_register.h"
#include "stack.h"
#include "util/op_counter.h"

namespace perfbench {
namespace {

using compreg::net::Deadline;
using compreg::net::real::MsgType;
using compreg::net::real::SocketTransport;
using compreg::net::real::TransportConfig;
using compreg::net::real::TransportKind;
using compreg::net::real::WireMsg;

// Keeps timed results observable so the optimizer cannot drop the work.
std::atomic<std::uint64_t> g_sink{0};

double us_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1000.0;
}

// Median per-call cost in ns of `op`, timed in batches of kBatch calls so
// the clock's own cost is amortized.
template <typename Op>
double median_ns(Op&& op, int batches) {
  constexpr int kBatch = 256;
  for (int i = 0; i < kBatch * 8; ++i) op(i);  // warm caches and branches
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) op(i);
    const std::int64_t t1 = now_ns();
    per_call.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  return median(std::move(per_call));
}

struct AbdProbe {
  bool ok = false;
  double read_us = 0;
  double write_us = 0;
};

AbdProbe probe_abd(const std::string& fleet_dir, int f,
                   std::uint64_t ts_floor, int reads, int writes) {
  TransportConfig tc;
  tc.kind = TransportKind::kUds;
  tc.replicas = 2 * f + 1;
  tc.self = tc.replicas;  // first client id; the stopped server's is free
  tc.dir = fleet_dir;
  SocketTransport net(tc);
  compreg::net::real::RealClientConfig cc;
  cc.f = f;
  compreg::net::real::RealAbdClient client(net, cc,
                                           std::chrono::steady_clock::now());
  AbdProbe out;
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::uint64_t ts = ts_floor;
  for (int i = 0; i < reads + writes; ++i) {
    const bool write = i >= reads;
    const std::int64_t t0 = now_ns();
    bool ok = false;
    if (write) {
      ++ts;
      ok = client.try_write(ts, ts);
    } else {
      const auto r = client.try_read();
      ok = r.ok;
      ts = std::max(ts, r.ts);  // writes must stay above the fleet's state
      g_sink.fetch_add(r.val, std::memory_order_relaxed);
    }
    const std::int64_t t1 = now_ns();
    if (!ok) return out;
    (write ? write_us : read_us).push_back(us_between(t0, t1));
  }
  out.ok = true;
  out.read_us = median(std::move(read_us));
  out.write_us = median(std::move(write_us));
  return out;
}

double probe_persist_us(const std::string& dir, int n) {
  const std::string path = dir + "/persist-probe.dur";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  compreg::net::real::FileDurable durable(path);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(n));
  for (int i = 1; i <= n; ++i) {
    const std::int64_t t0 = now_ns();
    durable.persist(static_cast<std::uint64_t>(i),
                    static_cast<std::uint64_t>(i));
    us.push_back(us_between(t0, now_ns()));
  }
  return median(std::move(us));
}

double probe_echo_rtt_us(const std::string& dir, int n) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  TransportConfig server_cfg;
  server_cfg.kind = TransportKind::kUds;
  server_cfg.self = 0;
  server_cfg.replicas = 1;
  server_cfg.dir = dir;
  TransportConfig client_cfg = server_cfg;
  client_cfg.self = 1;

  SocketTransport server(server_cfg);
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto d = server.poll(Deadline::after(std::chrono::milliseconds(5)));
      if (d) server.send(d->src, d->msg);
    }
  });

  SocketTransport client(client_cfg);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(n));
  // The first exchange dials the connection; it is not timed.
  for (int i = 0; i <= n; ++i) {
    const WireMsg msg{MsgType::kQuery, 1, static_cast<std::uint64_t>(i), 0,
                      0};
    const std::int64_t t0 = now_ns();
    client.send(0, msg);
    const Deadline give_up = Deadline::after(std::chrono::seconds(2));
    bool back = false;
    while (!back && !give_up.expired()) {
      auto d = client.poll(give_up);
      back = d && d->msg.op == msg.op;
    }
    const std::int64_t t1 = now_ns();
    if (!back) {
      us.clear();
      break;
    }
    if (i > 0) us.push_back(us_between(t0, t1));
  }
  stop.store(true, std::memory_order_relaxed);
  echo.join();
  return us.empty() ? 0 : median(std::move(us));
}

struct CoreProbe {
  double scan_ns = 0;
  double update0_ns = 0;
  std::uint64_t scan_regops = 0;
  std::uint64_t update0_regops = 0;
  double hazard_read_ns = 0;
  double hazard_write_ns = 0;
  double word_read_ns = 0;
  double prmw_read_ns = 0;
  double prmw_apply_ns = 0;
};

// Single-threaded costs of the paper's construction at C = 4, R = 4.
CoreProbe probe_core() {
  constexpr int kC = 4;
  constexpr int kR = 4;
  constexpr int kBatches = 2000;
  CoreProbe out;

  compreg::core::CompositeRegister<std::int64_t> reg(kC, kR, 0);
  std::vector<std::int64_t> vals;
  {
    const compreg::OpWindow w;
    reg.scan(0, vals);
    out.scan_regops = w.delta().total();
  }
  {
    const compreg::OpWindow w;
    reg.update(0, 1);
    out.update0_regops = w.delta().total();
  }
  out.scan_ns = median_ns(
      [&](int) {
        reg.scan(0, vals);
        g_sink.fetch_add(static_cast<std::uint64_t>(vals[0]),
                         std::memory_order_relaxed);
      },
      kBatches / 4);
  out.update0_ns =
      median_ns([&](int i) { reg.update(0, i); }, kBatches / 4);

  compreg::registers::HazardCell<std::uint64_t> hazard(kR, 0, "probe");
  out.hazard_read_ns = median_ns(
      [&](int i) {
        g_sink.fetch_add(hazard.read(i % kR), std::memory_order_relaxed);
      },
      kBatches);
  out.hazard_write_ns = median_ns(
      [&](int i) { hazard.write(static_cast<std::uint64_t>(i)); }, kBatches);

  compreg::registers::WordCell<std::uint64_t> word(kR, 0, "probe");
  out.word_read_ns = median_ns(
      [&](int i) {
        g_sink.fetch_add(word.read(i % kR), std::memory_order_relaxed);
      },
      kBatches);

  compreg::prmw::Counter counter(kC, kR);
  out.prmw_apply_ns =
      median_ns([&](int i) { counter.increment(i % kC); }, kBatches / 4);
  out.prmw_read_ns = median_ns(
      [&](int i) {
        g_sink.fetch_add(static_cast<std::uint64_t>(counter.read(i % kR)),
                         std::memory_order_relaxed);
      },
      kBatches / 4);
  return out;
}

}  // namespace

FleetLayers probe_fleet_layers(const Stack& stack, std::uint64_t ts_floor) {
  FleetLayers out;
  const AbdProbe abd =
      probe_abd(stack.dir(), Stack::kF, ts_floor, /*reads=*/2000,
                /*writes=*/400);
  out.ok = abd.ok;
  out.abd_read_us = abd.read_us;
  out.abd_write_us = abd.write_us;
  out.persist_us = probe_persist_us(stack.dir(), 400);
  out.echo_rtt_us = probe_echo_rtt_us(stack.dir() + "/echo", 4000);
  if (out.echo_rtt_us <= 0) out.ok = false;
  return out;
}

void add_ledger(Result& r, const Ledger& l, const FleetLayers& fl) {
  constexpr std::uint64_t kTR44 = 43;  // 5 + 2*TR(3,5), TR(1,R) = 1
  constexpr std::uint64_t kTW44 = 25;  // R + 2 + TR(3,5)
  const CoreProbe core = probe_core();
  if (core.scan_regops != kTR44 || core.update0_regops != kTW44) {
    r.findings.push_back(
        "operation counts: Read took " + std::to_string(core.scan_regops) +
        " and 0-Write " + std::to_string(core.update0_regops) +
        " register operations; the paper's TR(4,4) = 43, TW(4,4) = 25");
  }
  r.add("server.read_overhead_us", l.server_read_overhead_us, "us");
  r.add("server.batch_occupancy_mean", l.server_batch_occupancy_mean, "count");
  r.add("server.write_queue_depth_mean", l.server_write_queue_depth_mean,
        "count");
  r.add("server.quorum_rounds_per_op", l.server_quorum_rounds_per_op, "count");
  r.add("server.retries_per_op", l.server_retries_per_op, "count");
  r.add("abd.read_us", fl.abd_read_us, "us");
  r.add("abd.write_us", fl.abd_write_us, "us");
  r.add("abd.writeback_skip_ratio", l.abd_writeback_skip_ratio, "ratio");
  r.add("durable.persist_us", fl.persist_us, "us");
  r.add("transport.echo_rtt_us", fl.echo_rtt_us, "us");
  r.add("lin.check_s", l.lin_check_s, "s");
  r.add("core.scan_ns", core.scan_ns, "ns");
  r.add("core.update0_ns", core.update0_ns, "ns");
  r.add("core.scan_regops", static_cast<double>(core.scan_regops), "count");
  r.add("core.update0_regops", static_cast<double>(core.update0_regops),
        "count");
  r.add("core.ns_per_regop",
        core.scan_regops > 0
            ? core.scan_ns / static_cast<double>(core.scan_regops)
            : 0,
        "ns");
  r.add("registers.hazard_read_ns", core.hazard_read_ns, "ns");
  r.add("registers.hazard_write_ns", core.hazard_write_ns, "ns");
  r.add("registers.word_read_ns", core.word_read_ns, "ns");
  r.add("prmw.read_ns", core.prmw_read_ns, "ns");
  r.add("prmw.apply_ns", core.prmw_apply_ns, "ns");
  r.add("loadgen.cpu_frac", l.loadgen_cpu_frac, "ratio");
  r.add("loadgen.read_p99_us", l.loadgen_read_p99_us, "us");
  r.add("loadgen.write_p50_us", l.loadgen_write_p50_us, "us");
  r.add("loadgen.write_p99_us", l.loadgen_write_p99_us, "us");
  r.add("loadgen.error_rate", l.loadgen_error_rate, "ratio");
  r.add("trace.overhead_frac", l.trace_overhead_frac, "ratio");
}

}  // namespace perfbench

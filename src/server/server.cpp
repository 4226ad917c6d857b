#include "server/server.h"

#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "net/net_plan.h"
#include "net/real/fault_transport.h"
#include "util/assert.h"

namespace compreg::server {
namespace {

using compreg::net::Deadline;
using compreg::net::NetFaultPlan;
using compreg::net::abd::ClientStats;
using compreg::net::real::FaultyTransport;
using compreg::net::real::RealAbdClient;
using compreg::net::real::RealClientConfig;
using compreg::net::real::SocketTransport;
using compreg::net::real::TransportConfig;
using compreg::telemetry::Counter;
using compreg::telemetry::Histo;
using compreg::telemetry::Recorder;

using SteadyPoint = std::chrono::steady_clock::time_point;

SteadyPoint epoch_point(std::int64_t ns) {
  return SteadyPoint(std::chrono::duration_cast<SteadyPoint::duration>(
      std::chrono::nanoseconds(ns)));
}

std::uint64_t us_since(SteadyPoint t0) {
  const auto d = std::chrono::steady_clock::now() - t0;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d);
  return us.count() < 0 ? 0 : static_cast<std::uint64_t>(us.count());
}

}  // namespace

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), admission_(cfg.max_inflight) {}

RealClientConfig Server::fleet_client_config() const {
  RealClientConfig c;
  c.f = cfg_.f;
  c.attempt_timeout = std::chrono::milliseconds(cfg_.attempt_ms);
  c.max_attempts = cfg_.max_attempts;
  c.jitter_seed = cfg_.seed ^ 0x5eb7e17ull;
  return c;
}

net::real::TransportConfig Server::fleet_transport_config(int node) const {
  TransportConfig c;
  c.kind = cfg_.kind;
  c.self = node;
  c.replicas = cfg_.replicas();
  c.dir = cfg_.fleet_dir;
  c.base_port = static_cast<std::uint16_t>(cfg_.fleet_base_port);
  return c;
}

void Server::complete(const Completion& c) {
  std::lock_guard<std::mutex> lock(done_mu_);
  done_.push_back(c);
}

std::vector<Server::Completion> Server::take_completions() {
  std::lock_guard<std::mutex> lock(done_mu_);
  std::vector<Completion> out;
  out.swap(done_);
  return out;
}

void Server::write_worker_main() {
  SocketTransport sock(fleet_transport_config(cfg_.replicas()));
  const NetFaultPlan plan =
      cfg_.plan_text.empty()
          ? NetFaultPlan{}
          : NetFaultPlan::parse(cfg_.plan_text).value_or(NetFaultPlan{});
  const SteadyPoint epoch = epoch_point(cfg_.epoch_ns);
  FaultyTransport net(sock, plan, cfg_.seed ^ 0x77121ull, epoch);
  RealAbdClient client(net, fleet_client_config(), epoch);
  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");

  // The write-timestamp sequence continues the fleet's: a timestamp at
  // or below the fleet's state would be acked without being adopted — a
  // WriteOk no read could ever see. Until a seed read succeeds it is
  // retried before each write, and an unseeded write is answered Busy
  // (no write reached the fleet). A fresh fleet answers ts=0.
  std::optional<std::uint64_t> last_ts;
  const auto seed = [&] {
    const auto r = client.try_read();
    if (r.ok) last_ts = r.ts;
  };
  for (int i = 0; i < 10 && !last_ts; ++i) seed();
  ClientStats last = client.stats();

  while (true) {
    PendingWrite op;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(write_mu_);
      write_cv_.wait(lock,
                     [&] { return !write_queue_.empty() || write_stop_; });
      if (write_queue_.empty()) break;  // stopped and drained
      op = write_queue_.front();
      write_queue_.pop_front();
      depth = write_queue_.size();
    }
    rec->count(Counter::kWritesDequeued);
    rec->record(Histo::kQueueDepth, depth);

    if (!last_ts) seed();
    Completion c;
    c.req = op.req;
    c.t0 = op.t0;
    c.status = Status::kBusy;
    if (last_ts) {
      c.ts = ++*last_ts;  // Unavailable writes still report it
      c.val = op.req.val;
      c.status = client.try_write(c.ts, c.val) ? Status::kOk
                                                : Status::kUnavailable;
    }
    const ClientStats& s = client.stats();
    rec->count(Counter::kRetries, s.retries - last.retries);
    rec->count(Counter::kQuorumRounds, s.phases - last.phases);
    last = s;
    complete(c);
  }
}

void Server::read_worker_main() {
  SocketTransport sock(fleet_transport_config(cfg_.replicas() + 1));
  const NetFaultPlan plan =
      cfg_.plan_text.empty()
          ? NetFaultPlan{}
          : NetFaultPlan::parse(cfg_.plan_text).value_or(NetFaultPlan{});
  const SteadyPoint epoch = epoch_point(cfg_.epoch_ns);
  FaultyTransport net(sock, plan, cfg_.seed ^ 0x4ead2ull, epoch);
  RealAbdClient client(net, fleet_client_config(), epoch);
  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");
  ClientStats last = client.stats();

  while (true) {
    const std::vector<ReadBatcher::Item> batch = batcher_.take_batch();
    if (batch.empty()) break;  // stopped and drained

    // One shared quorum collect for the whole batch. It starts after
    // every member's enqueue, so each member's answer is at least as
    // fresh as a collect it could have started itself.
    const auto r = client.try_read();
    const ClientStats& s = client.stats();
    rec->count(Counter::kRetries, s.retries - last.retries);
    rec->count(Counter::kQuorumRounds, s.phases - last.phases);
    last = s;
    rec->count(Counter::kBatchRounds);
    rec->count(Counter::kBatchedReads, batch.size());
    rec->record(Histo::kBatchOccupancy, batch.size());

    for (const ReadBatcher::Item& item : batch) {
      Completion c;
      c.req = item.req;
      c.status = r.ok ? Status::kOk : Status::kUnavailable;
      c.ts = r.ts;
      c.val = r.val;
      c.t0 = item.t0;
      complete(c);
    }
  }
}

void Server::run(const std::atomic<bool>& stop) {
  TransportConfig front_cfg;
  front_cfg.kind = cfg_.kind;
  front_cfg.self = 0;
  front_cfg.replicas = 1;  // the server is the only listener up front
  front_cfg.dir = cfg_.front_dir;
  front_cfg.base_port = static_cast<std::uint16_t>(cfg_.front_base_port);
  SocketTransport front(front_cfg);

  Recorder* rec = registry_.attach();
  COMPREG_CHECK(rec != nullptr, "telemetry registry full");

  std::thread writer([this] { write_worker_main(); });
  std::thread reader([this] { read_worker_main(); });

  bool draining = false;
  while (true) {
    // Relaxed: the stop flag is a level-triggered latch polled once per
    // slice; no other state rides on its visibility ordering.
    if (!draining && stop.load(std::memory_order_relaxed)) draining = true;

    // One short I/O slice, then drain whatever already arrived.
    auto d = front.poll(Deadline::after(std::chrono::milliseconds(1)));
    while (d.has_value()) {
      Request req;
      if (decode_request(d->msg, req)) {
        rec->count(Counter::kOpsReceived);
        if (draining || !admission_.try_acquire()) {
          // Typed backpressure: reject in one round trip, never queue
          // unboundedly (and accept nothing new while draining).
          rec->count(Counter::kBusy);
          front.send(static_cast<int>(req.client),
                     make_response(0, req, Status::kBusy, 0, 0));
        } else {
          const SteadyPoint t0 = std::chrono::steady_clock::now();
          if (req.is_write) {
            {
              std::lock_guard<std::mutex> lock(write_mu_);
              write_queue_.push_back(PendingWrite{req, t0});
            }
            write_cv_.notify_one();
            rec->count(Counter::kWritesEnqueued);
          } else {
            batcher_.enqueue(ReadBatcher::Item{req, t0});
          }
        }
      }
      d = front.poll(Deadline::after(std::chrono::milliseconds(0)));
    }

    for (const Completion& c : take_completions()) {
      front.send(static_cast<int>(c.req.client),
                 make_response(0, c.req, c.status, c.ts, c.val));
      admission_.release();
      const std::uint64_t us = us_since(c.t0);
      if (c.status == Status::kBusy) {
        rec->count(Counter::kBusy);  // an unseeded write
      } else if (c.req.is_write) {
        rec->count(c.status == Status::kOk ? Counter::kWritesOk
                                           : Counter::kUnavailable);
        rec->record(Histo::kWriteLatencyUs, us);
      } else {
        rec->count(c.status == Status::kOk ? Counter::kReadsOk
                                           : Counter::kUnavailable);
        rec->record(Histo::kReadLatencyUs, us);
      }
    }

    if (draining && admission_.in_flight() == 0) break;
  }

  {
    std::lock_guard<std::mutex> lock(write_mu_);
    write_stop_ = true;
  }
  write_cv_.notify_all();
  batcher_.stop();
  writer.join();
  reader.join();

  // A few extra slices so buffered response frames reach the kernel
  // before the transport (and its connections) are torn down.
  for (int i = 0; i < 50; ++i) {
    front.poll(Deadline::after(std::chrono::milliseconds(2)));
  }
}

Server::Conservation Server::conservation() const {
  const telemetry::Snapshot snap = registry_.snapshot();
  Conservation c;
  c.received = snap.counter(Counter::kOpsReceived);
  c.writes_ok = snap.counter(Counter::kWritesOk);
  c.reads_ok = snap.counter(Counter::kReadsOk);
  c.unavailable = snap.counter(Counter::kUnavailable);
  c.busy = snap.counter(Counter::kBusy);
  c.ok = c.received == c.writes_ok + c.reads_ok + c.unavailable + c.busy;
  return c;
}

}  // namespace compreg::server

// The standing register service: many clients, one ABD writer funnel.
//
// Three threads, each owning its own single-threaded SocketTransport:
//
//   front-end (the thread calling run()): drives the client-facing
//     transport (node 0 of its own namespace; clients are anonymous
//     peers identified by their frame src), decodes requests, applies
//     admission control (bounded in-flight, Busy beyond the bound),
//     routes writes to the write worker and reads to the ReadBatcher,
//     and sends every completed response back on the client's
//     connection. It is event-driven: a worker posts its completions
//     and then calls the front transport's thread-safe wake(), so the
//     front-end's poll returns as soon as a response is ready. The
//     poll's 1 ms deadline only bounds how soon a stop is noticed;
//
//   write worker: owns a RealAbdClient against the 2f+1 fleet and is
//     the SINGLE ABD WRITER — every client write is assigned the next
//     timestamp of one monotone sequence (seeded from a collect, so a
//     server fronting a non-empty fleet continues, not restarts, the
//     sequence; until a seed collect succeeds, writes are answered
//     Busy) and performed one at a time. Timestamp order therefore IS
//     the write serialization order, which is what
//     the funneled atomicity checker (lin/register_checker.h) verifies
//     against client-observed intervals;
//
//   read worker: owns a second RealAbdClient and serves reads in
//     batches — it swaps out the entire pending-read queue and answers
//     the whole batch from ONE shared quorum collect that starts after
//     every member arrived (see server/read_batch.h for the staleness
//     argument).
//
// Degradation is always explicit and bounded: a spent fleet retry
// budget surfaces as kUnavailableResp (writes still carry their
// assigned timestamp — the value may yet take effect, clients record it
// pending), and admission overflow or an unseeded write surfaces as
// kBusyResp before any fleet traffic for it. Nothing queues unboundedly
// and nothing blocks forever.
//
// Every thread carries an always-on telemetry recorder
// (src/telemetry/); shutdown drains in-flight ops to zero before
// stopping the workers, so the final snapshot satisfies conservation:
// ops_received == writes_ok + reads_ok + unavailable + busy.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/net_plan.h"
#include "net/real/client.h"
#include "net/real/transport.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/read_batch.h"
#include "telemetry/telemetry.h"

namespace compreg::server {

struct ServerConfig {
  net::real::TransportKind kind = net::real::TransportKind::kUds;
  int f = 1;

  // Fleet-facing namespace (must match the replicas').
  std::string fleet_dir;
  int fleet_base_port = 47600;

  // Client-facing namespace (the server listens as node 0 in it).
  std::string front_dir;
  int front_base_port = 47800;

  std::uint32_t max_inflight = 128;

  // Fleet-side retry budget (RealAbdClient).
  unsigned attempt_ms = 100;
  unsigned max_attempts = 8;

  // Optional client-side fault plan against the fleet (chaos runs).
  std::string plan_text;
  std::uint64_t seed = 1;
  std::int64_t epoch_ns = 0;  // shared fleet epoch

  int replicas() const { return 2 * f + 1; }
};

class Server {
 public:
  // Parses cfg.plan_text once; a plan that does not parse leaves
  // plan_error() non-empty, and run() must not be called.
  explicit Server(const ServerConfig& cfg);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Serves until `stop` becomes true, then drains every admitted op,
  // stops the workers, and returns. The calling thread is the front-end.
  void run(const std::atomic<bool>& stop);

  const std::string& plan_error() const { return plan_error_; }

  telemetry::Registry& registry() { return registry_; }

  struct Conservation {
    bool ok = false;
    std::uint64_t received = 0;
    std::uint64_t writes_ok = 0;
    std::uint64_t reads_ok = 0;
    std::uint64_t unavailable = 0;
    std::uint64_t busy = 0;
  };
  // Valid after run() returned (workers quiesced, totals stable).
  Conservation conservation() const;

 private:
  using SteadyPoint = std::chrono::steady_clock::time_point;

  struct PendingWrite {
    Request req;
    SteadyPoint t0;
  };
  struct Completion {
    Request req;
    Status status = Status::kOk;
    std::uint64_t ts = 0;
    std::uint64_t val = 0;
    SteadyPoint t0{};
  };

  void write_worker_main();
  void read_worker_main();
  net::real::RealClientConfig fleet_client_config() const;
  net::real::TransportConfig fleet_transport_config(int node) const;

  // Posts completions under one lock, then wakes the front-end.
  void complete(std::span<const Completion> cs);
  std::vector<Completion> take_completions();

  ServerConfig cfg_;
  net::NetFaultPlan plan_;  // parsed once, shared by both workers
  std::string plan_error_;
  telemetry::Registry registry_;
  AdmissionGate admission_;
  ReadBatcher batcher_;

  std::mutex write_mu_;
  std::condition_variable write_cv_;
  std::deque<PendingWrite> write_queue_;
  bool write_stop_ = false;

  // The front-end's transport, woken by complete(); valid while run()
  // has the workers running.
  net::real::SocketTransport* front_ = nullptr;

  std::mutex done_mu_;
  std::vector<Completion> done_;
};

}  // namespace compreg::server

// One real ABD replica: the socket driver for the replica half of the
// protocol core (net/abd.h) — STORE, QUERY, SYNC-REQ and SYNC-REPLY
// handling, persist-before-ack, and the rejoin rule all live there. This
// event loop decodes WireMsg frames, persists through the replica's
// FileDurable, re-broadcasts SYNC-REQ on a deadline until the catch-up
// quorum answers (peers may themselves still be starting), and answers
// over the Transport.
//
// Each process start is a rejoin: a replica whose durable file holds
// nothing never acknowledged anything and serves at once; otherwise it
// catches up first. The incarnation tag (start time and pid) keeps sync
// replies meant for a previous life of this node id from counting.
//
// The replica appends machine-parseable lines ("start ...",
// "serving ...") to <data_dir>/audit.log; the harness's durability
// auditor joins them against client-side ack records to detect
// ack-before-persist violations across real kill-9 cycles.
//
// Termination: SIGTERM requests a clean exit; SIGKILL is the chaos
// path (the supervisor's job). The supervisor arms PR_SET_PDEATHSIG so
// orphaned replicas die with the harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "net/net_plan.h"
#include "net/real/transport.h"

namespace compreg::net::real {

struct ReplicaConfig {
  TransportConfig transport;  // transport.self = this replica's node id
  int f = 1;
  std::string data_dir;  // durable records + audit log
  NetFaultPlan plan;     // socket-level faults; crash/recover specs are
                         // ignored here (real crashes are SIGKILLs)
  std::uint64_t seed = 1;
  std::chrono::steady_clock::time_point epoch{};  // fleet time origin
};

// Runs the replica event loop until SIGTERM. Returns a process exit
// code (0 on clean shutdown).
int run_replica(const ReplicaConfig& cfg);

// Appends one line to the shared audit log (O_APPEND, single write).
// Used by run_replica; exposed so tests can seed and parse logs.
void audit_append(const std::string& path, const std::string& line);

}  // namespace compreg::net::real

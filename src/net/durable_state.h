// Simulated stable storage for the crash-recovery replica model
// (Imbs–Mostéfaoui–Perrin–Raynal): a replica may rejoin after a downtime
// window, which preserves atomicity only under the durability discipline
// the ABD core (net/abd.h) follows — persist before ack, and reload plus
// catch up before serving again. Two pieces model the storage side:
//
//   DurableRecord<T>  one replica's stable (ts, value) record for one
//                     replicated register. persist() is the fsync
//                     analogue: it survives every crash–recover cycle
//                     of the owning replica. Monotone in ts (stable
//                     storage never regresses) and idempotent, so
//                     duplicated STOREs persist once.
//
//   DurableMedium     the fabric-wide stable-storage device (owned by
//                     SimNet, one per fabric lifetime). It keeps the
//                     authoritative durable-timestamp ledger per
//                     (cell, replica node), reports every persist as a
//                     labeled access (sched::observe — positioned in
//                     the conformance access stream without taking an
//                     extra schedule point, like Simpson's sub-model
//                     registers), and doubles as the *durability
//                     auditor*: the environment-side oracle that checks
//                     every replica ack and reply against the ledger.
//
// The auditor's two invariants, violated exactly by the seeded amnesia
// mutants (NetConfig::Amnesia) and by nothing else:
//
//   ack-before-persist   a replica acknowledged timestamp t while its
//                        durable timestamp was < t. A crash after the
//                        ack forgets an acknowledged write — the bug
//                        the durability rule exists to prevent.
//   amnesiac-reply       a replica served a (ts, value) with ts below
//                        its own durable timestamp: it forgot state it
//                        had already made stable, i.e. it rejoined
//                        without reloading/catching up.
//
// Findings use the analysis::Finding shape so the verify tools merge
// them into the conformance report and existing artifact plumbing
// (dump/parse round-trip, CI grep) works unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "analysis/report.h"
#include "sched/access.h"
#include "sched/schedule_point.h"

namespace compreg::net {

struct DurableStats {
  std::uint64_t persists = 0;  // fsync-analogue events
  std::uint64_t reloads = 0;   // rejoin reloads of stable state
};

class DurableMedium {
 public:
  DurableMedium();

  DurableMedium(const DurableMedium&) = delete;
  DurableMedium& operator=(const DurableMedium&) = delete;

  // Records that replica `node` made (cell, ts) stable. Monotone: an
  // older ts than the ledger's is a no-op (callers persist idempotent
  // adopt-if-newer state).
  void persist(std::uint64_t cell, const char* owner, int node,
               std::uint64_t ts);

  // Records a rejoin reload (bookkeeping only; the typed value lives in
  // the replica's DurableRecord).
  void note_reload(std::uint64_t cell, int node);

  // The ledger: highest timestamp replica `node` has made stable for
  // `cell` (0 if it never persisted).
  std::uint64_t durable_ts(std::uint64_t cell, int node) const;

  // Durability auditor — called by the replica handlers at every ack /
  // reply. One finding per (kind, cell, node); repeats are counted but
  // not duplicated.
  void audit_ack(std::uint64_t cell, const char* owner, int node,
                 std::uint64_t acked_ts);
  void audit_reply(std::uint64_t cell, const char* owner, int node,
                   std::uint64_t reply_ts);

  bool clean() const { return report_.findings.empty(); }
  const DurableStats& stats() const { return stats_; }

  // Findings-only report, ready for AnalysisReport::merge_findings().
  const analysis::AnalysisReport& report() const { return report_; }

 private:
  void add_finding(const char* kind, std::uint64_t cell, const char* owner,
                   int node, std::string detail);

  std::map<std::pair<std::uint64_t, int>, std::uint64_t> ledger_;
  DurableStats stats_;
  analysis::AnalysisReport report_;
  // All replicas persist through the one device; kMrmw + global_order
  // like net.send/net.poll: tracked (it positions persist events in the
  // access stream), never flagged — the SWMR discipline lives at the
  // replicated register.
  sched::AccessLabel persist_access_;
};

// One replica's stable (timestamp, value) record for one replicated
// register. Plain fields — simulator-serialized like all net state.
template <typename T>
class DurableRecord {
 public:
  DurableRecord(DurableMedium& medium, std::uint64_t cell, const char* owner,
                int node, T initial)
      : medium_(&medium),
        cell_(cell),
        owner_(owner),
        node_(node),
        val_(std::move(initial)) {}

  // fsync analogue: make (ts, value) stable. Monotone (stable storage
  // never regresses) and idempotent (a duplicated STORE re-persisting
  // the current ts is a no-op). ts 0 = the initial value, durable by
  // construction, so nothing to do.
  void persist(std::uint64_t ts, const T& value) {
    if (ts <= ts_) return;
    ts_ = ts;
    val_ = value;
    medium_->persist(cell_, owner_, node_, ts);
  }

  // Rejoin reload: returns to the caller via ts()/value().
  void reload() { medium_->note_reload(cell_, node_); }

  std::uint64_t ts() const { return ts_; }
  const T& value() const { return val_; }

 private:
  DurableMedium* medium_;
  std::uint64_t cell_;
  const char* owner_;
  int node_;
  std::uint64_t ts_ = 0;
  T val_;
};

}  // namespace compreg::net

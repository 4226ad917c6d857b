// ReplicatedRegister: an ABD quorum-replicated MRSW atomic register over
// SimNet — the networked substrate for the paper's construction.
//
// The protocol lives in net/abd.h, shared with the socket fleet
// (net/real/). This is the simulator's driver for it: the core's
// broadcasts become labeled SimNet sends, its waits become SimNet polls
// (kRetry counts polls), and the replica handlers run
// inside delivery closures, which also call the durability auditor
// (net/durable_state.h) on every ack and reply. Every schedule point the
// DPOR certificates explore is a send or poll taken here, in the order
// the core asks for them. NetConfig::amnesia swaps in a stable-storage
// double that breaks the crash-recovery discipline (ack-before-persist,
// blank rejoin) for certification runs.
//
// try_read/try_write surface quorum loss as a value; read/write (the
// MrswCell interface, which has no failure channel) throw
// UnavailableError, a sched::ProcessParked, so the crash-aware workload
// drivers and checkers treat a quorum-starved process exactly like a
// crash-stopped one: its interrupted operation is recorded pending.
//
// SIMULATOR-ONLY for concurrent use (the replica state and SimNet
// queue are plain fields serialized by the lockstep); single-threaded
// use works anywhere, which the unit tests rely on.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/abd.h"
#include "net/durable_state.h"
#include "net/sim_net.h"
#include "sched/access.h"
#include "sched/schedule_point.h"
#include "util/assert.h"
#include "util/op_counter.h"
#include "util/space_accounting.h"

namespace compreg::net {

// Thrown by read()/write() when a quorum phase exhausts its retry
// budget. Deriving from ProcessParked means an unhandled Unavailable
// halts the issuing virtual process like a crash-stop — the graceful
// degradation contract documented in docs/fault_model.md.
struct UnavailableError : sched::ProcessParked {
  explicit UnavailableError(const char* op_name) : op(op_name) {}
  const char* op;  // "write" or "read"
};

// Seeded durability mutants for certification runs (tests, verify
// tools). Each one breaks the crash-recovery discipline in a way the
// durability auditor and the crash-aware linearizability checkers must
// flag; production configs keep kNone.
enum class Amnesia : std::uint8_t {
  kNone = 0,
  // Stable storage never takes a write: every ack outruns its persist,
  // so a crash forgets acknowledged writes.
  kAckBeforePersist,
  // A restart finds stable storage empty, so the rejoining replica
  // serves a blank slate at once: no reload, no catch-up.
  kBlankRejoin,
};

struct NetConfig {
  int f = 1;                         // crash tolerance; replicas = 2f + 1
  Amnesia amnesia = Amnesia::kNone;  // certification-only seeded fault

  int replicas() const { return 2 * f + 1; }
};

template <typename T>
class ReplicatedRegister {
 public:
  // Retry budget, in network polls (= schedule points while waiting),
  // so every bound is deterministic.
  static constexpr abd::RetryPolicy kRetry{/*attempt=*/24,
                                           /*max_attempts=*/5,
                                           /*backoff_base=*/2,
                                           /*backoff_cap=*/32};
  static constexpr std::uint64_t kJitterSeed = 0x9e7c0ffeeull;

  // `readers` reader slots (one concurrent reader per slot, matching
  // the MRSW contract); the writer is a separate implicit endpoint.
  ReplicatedRegister(SimNet& net, const NetConfig& cfg, int readers,
                     T initial, const char* label = "net",
                     std::uint64_t payload_bits = sizeof(T) * 8)
      : net_(net),
        cfg_(cfg),
        access_(label, sched::Discipline::kSwmr, readers) {
    COMPREG_CHECK(readers >= 1, "need at least one reader slot");
    COMPREG_CHECK(net.replicas() == cfg.replicas(),
                  "SimNet has %d replica nodes, NetConfig wants %d",
                  net.replicas(), cfg.replicas());
    const int n = cfg.replicas();
    replicas_.reserve(static_cast<std::size_t>(n));
    disks_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      replicas_.emplace_back(r, cfg.f, initial);
      disks_.push_back(Disk{DurableRecord<T>(net.durable(), access_.cell(),
                                             label, r, initial),
                            cfg.amnesia, initial});
    }
    hook_token_ =
        net_.add_recover_hook([this](int node) { on_recover(node); });
    // Endpoint 0 is the writer, 1 + j is reader slot j.
    for (int e = 0; e <= readers; ++e) {
      const int node = net_.new_client_node();
      endpoints_.push_back(Endpoint{
          node, abd::Client<T>(cfg.f, kRetry, kJitterSeed, node,
                               net_.stats().client)});
    }
    // One logical MRSW register; physically 2f+1 replicated copies.
    account_register(label, payload_bits, readers,
                     static_cast<std::uint64_t>(n));
  }

  ~ReplicatedRegister() { net_.remove_recover_hook(hook_token_); }

  ReplicatedRegister(const ReplicatedRegister&) = delete;
  ReplicatedRegister& operator=(const ReplicatedRegister&) = delete;

  // MrswCell surface: throws UnavailableError on quorum loss.
  void write(const T& value) {
    if (!try_write(value)) throw UnavailableError("write");
  }

  T read(int reader_id) {
    std::optional<T> out = try_read(reader_id);
    if (!out) throw UnavailableError("read");
    return *std::move(out);
  }

  // Graceful-degradation surface: false/nullopt means the retry budget
  // ran out without reaching a majority (Unavailable). A failed write
  // may still take effect later — its timestamped value can survive on
  // a minority and be adopted by a future read's write-back — but it
  // can never be un-written, exactly like a crash-interrupted write.
  bool try_write(const T& value) {
    sched::observe(access_.write());
    ++op_counters().reg_writes;
    Io io{*this, endpoints_.front()};
    return endpoints_.front().client.write(io, ++write_ts_, value);
  }

  std::optional<T> try_read(int reader_id) {
    COMPREG_DCHECK(reader_id >= 0 &&
                   reader_id + 1 < static_cast<int>(endpoints_.size()));
    sched::observe(access_.read(reader_id));
    ++op_counters().reg_reads;
    Endpoint& ep = endpoints_[static_cast<std::size_t>(reader_id) + 1];
    Io io{*this, ep};
    std::optional<abd::Stamped<T>> got = ep.client.read(io);
    if (!got) return std::nullopt;
    return std::move(got->val);
  }

  // Direct replica inspection, for tests and benches.
  std::uint64_t replica_ts(int r) const { return replica(r).state().ts; }
  const T& replica_val(int r) const { return replica(r).state().val; }
  // Stable-storage view of one replica (what a crash cannot erase).
  std::uint64_t durable_ts(int r) const { return disk(r).record.ts(); }
  const T& durable_val(int r) const { return disk(r).record.value(); }
  // False while the replica is mid-rejoin (up, but not yet caught up).
  bool replica_serving(int r) const { return replica(r).serving(); }
  std::uint64_t write_ts() const { return write_ts_; }

 private:
  // Stable storage as a sim replica sees it: its DurableRecord, or an
  // amnesia double over that record (so the auditor's ledger still holds
  // what really became stable).
  struct Disk {
    DurableRecord<T> record;
    Amnesia amnesia;
    T blank;  // what a kBlankRejoin restart finds

    void persist(std::uint64_t ts, const T& val) {
      if (amnesia != Amnesia::kAckBeforePersist) record.persist(ts, val);
    }
    void reload() {
      if (amnesia != Amnesia::kBlankRejoin) record.reload();
    }
    std::uint64_t ts() const {
      return amnesia == Amnesia::kBlankRejoin ? 0 : record.ts();
    }
    const T& value() const {
      return amnesia == Amnesia::kBlankRejoin ? blank : record.value();
    }
  };

  // One client role (the writer, or one reader slot). Endpoints are
  // stable in memory (deque) because delivery closures capture them.
  struct Endpoint {
    int node = -1;
    abd::Client<T> client;
  };

  // The core's I/O for one operation on one endpoint.
  struct Io {
    ReplicatedRegister& reg;
    Endpoint& ep;

    void broadcast(abd::Kind kind, std::uint64_t op,
                   const abd::Stamped<T>& req) {
      for (int r = 0; r < reg.cfg_.replicas(); ++r) {
        if (kind == abd::Kind::kStore) {
          reg.send_store(ep, r, op, req);
        } else {
          reg.send_query(ep, r, op);
        }
      }
    }
    bool await(std::uint64_t polls) {
      for (std::uint64_t i = 0; i < polls; ++i) {
        reg.net_.poll();
        if (ep.client.has_quorum()) return true;
      }
      return false;
    }
  };

  const abd::Replica<T>& replica(int r) const {
    return replicas_[static_cast<std::size_t>(r)];
  }
  abd::Replica<T>& replica(int r) {
    return replicas_[static_cast<std::size_t>(r)];
  }
  const Disk& disk(int r) const { return disks_[static_cast<std::size_t>(r)]; }
  Disk& disk(int r) { return disks_[static_cast<std::size_t>(r)]; }

  void send_store(Endpoint& ep, int r, std::uint64_t op,
                  const abd::Stamped<T>& req) {
    net_.send(ep.node, r, [this, &ep, r, op, req] {
      const std::optional<std::uint64_t> ack =
          replica(r).on_store(disk(r), req.ts, req.val);
      if (!ack) return;
      net_.durable().audit_ack(access_.cell(), access_.decl().owner, r, *ack);
      net_.send(r, ep.node, [&ep, r, op, ts = *ack] {
        ep.client.offer(op, r, ts, T{});
      });
    });
  }

  void send_query(Endpoint& ep, int r, std::uint64_t op) {
    net_.send(ep.node, r, [this, &ep, r, op] {
      const std::optional<abd::Stamped<T>> state = replica(r).on_query();
      if (!state) return;
      net_.durable().audit_reply(access_.cell(), access_.decl().owner, r,
                                 state->ts);
      net_.send(r, ep.node, [&ep, r, op, s = *state] {
        ep.client.offer(op, r, s.ts, s.val);
      });
    });
  }

  // SimNet rejoin hook: replica `node` just came back from a crash–
  // downtime cycle. Its volatile state is gone; the core rebuilds it
  // from stable storage and, if a catch-up round opens, SYNC-REQs go to
  // every peer (answered like queries, only while serving).
  void on_recover(int node) {
    disk(node).reload();
    const std::uint64_t round = ++rejoins_;  // tags this start's replies
    if (!replica(node).rejoin(disk(node), round)) return;
    for (int r = 0; r < cfg_.replicas(); ++r) {
      if (r == node) continue;
      ++net_.stats().catchup_msgs;
      net_.send(node, r, [this, node, r, round] {
        const std::optional<abd::Stamped<T>> state = replica(r).on_query();
        if (!state) return;
        net_.durable().audit_reply(access_.cell(), access_.decl().owner, r,
                                   state->ts);
        ++net_.stats().catchup_msgs;
        net_.send(r, node, [this, node, r, round, s = *state] {
          replica(node).on_sync_reply(disk(node), round, r, s.ts, s.val);
        });
      });
    }
  }

  SimNet& net_;
  NetConfig cfg_;
  sched::AccessLabel access_;  // model-level SWMR identity of this cell
  std::vector<abd::Replica<T>> replicas_;  // volatile state (crash-lost)
  std::vector<Disk> disks_;                // stable state (crash-proof)
  std::uint64_t hook_token_ = 0;
  std::uint64_t rejoins_ = 0;
  std::deque<Endpoint> endpoints_;
  std::uint64_t write_ts_ = 0;
};

}  // namespace compreg::net

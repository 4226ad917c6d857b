// The ABD register protocol, written once: the client phase logic and
// the replica handlers that the simulator (ReplicatedRegister over
// SimNet) and the socket fleet (real::RealAbdClient, real::run_replica)
// both drive. It is the single-writer half of Attiya–Bar-Noy–Dolev as
// surveyed by Imbs–Mostéfaoui–Perrin–Raynal: 2f+1 replicas each hold a
// (timestamp, value) pair; a write stores its pair at a majority (f+1);
// a read queries a majority, adopts the maximum timestamp and, unless
// every reply agreed on it, writes that pair back to a majority first.
//
// The core is sans-IO: no sockets, clocks, schedule points or storage.
// Client<T>::write()/read() take the driver's Io, which provides
//   void broadcast(Kind, std::uint64_t op, const Stamped<T>&)  (to all)
//   bool await(std::uint64_t budget)
// await pumps the driver's I/O for `budget` units of waiting (simulator
// polls, or milliseconds on sockets), feeds each reply to offer(), and
// returns true as soon as has_quorum(). Replica<T>'s handlers take the
// driver's Durable: persist(ts, val), stable when it returns, plus ts()
// and value() of what is stable.
//
// Crash recovery: a STORE is persisted BEFORE its ack leaves, and a
// restarted replica reloads stable state and catches up from a read
// quorum (itself plus f distinct peers, which intersects every completed
// write's ack quorum) before serving. A replica with nothing stable
// never acknowledged anything, so it serves at once.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/backoff.h"
#include "util/assert.h"
#include "util/rng.h"

namespace compreg::net::abd {

// A timestamped register value: what a replica holds and a read returns.
template <typename T>
struct Stamped {
  std::uint64_t ts = 0;
  T val{};
};

enum class Kind : std::uint8_t { kQuery, kStore };

// Per-phase retry budget, in the driver's unit of waiting.
struct RetryPolicy {
  std::uint64_t attempt;  // wait for replies after each broadcast
  unsigned max_attempts;  // first try included
  unsigned backoff_base;  // window doubles per failed attempt
  unsigned backoff_cap;   // upper bound on one window
};

struct ClientStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t phases = 0;           // quorum phases started
  std::uint64_t retries = 0;          // re-broadcasts after a failed attempt
  std::uint64_t unavailable = 0;      // phases that spent the budget
  std::uint64_t writebacks = 0;       // read write-back phases completed
  std::uint64_t writeback_skips = 0;  // reads whose quorum agreed
};

// What offer() did with a reply.
enum class Offer : std::uint8_t {
  kStale,      // not for the current phase (or from no replica)
  kDuplicate,  // this replica already answered the current phase
  kCounted,
};

template <typename T>
class Client {
 public:
  // `node` is the driver's endpoint id: it is mixed into the jitter
  // seed so endpoints sharing a seed back off independently. `stats`
  // must outlive the client (drivers may share one across clients).
  Client(int f, RetryPolicy retry, std::uint64_t jitter_seed, int node,
         ClientStats& stats)
      : replicas_(2 * f + 1),
        quorum_(f + 1),
        retry_(retry),
        jitter_(jitter_seed ^ (static_cast<std::uint64_t>(node) * 0x9e3779b9ull)),
        stats_(&stats) {
    COMPREG_CHECK(f >= 1 && f <= 31, "need 1 <= f <= 31 (64-bit masks)");
    replies_.reserve(static_cast<std::size_t>(replicas_));
  }

  // Receive path. Only the current phase's op id counts, and only the
  // first reply from each replica.
  Offer offer(std::uint64_t op, int replica, std::uint64_t ts, const T& val) {
    if (op != op_ || replica < 0 || replica >= replicas_) return Offer::kStale;
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(replica);
    if ((seen_ & bit) != 0) return Offer::kDuplicate;
    seen_ |= bit;
    replies_.push_back(Stamped<T>{ts, val});
    return Offer::kCounted;
  }

  bool has_quorum() const {
    return static_cast<int>(replies_.size()) >= quorum_;
  }

  // SWMR write of a timestamp the caller owns. False = Unavailable: the
  // value may still take effect (it may rest on a minority), so callers
  // treat the write as pending, never as undone.
  template <class Io>
  bool write(Io& io, std::uint64_t ts, const T& val) {
    ++stats_->writes;
    return phase(io, Kind::kStore, Stamped<T>{ts, val});
  }

  // ABD read; nullopt = Unavailable.
  template <class Io>
  std::optional<Stamped<T>> read(Io& io) {
    ++stats_->reads;
    if (!phase(io, Kind::kQuery, Stamped<T>{})) return std::nullopt;
    const Stamped<T>* best = &replies_.front();
    bool uniform = true;
    for (const Stamped<T>& reply : replies_) {
      if (reply.ts != best->ts) uniform = false;
      if (reply.ts > best->ts) best = &reply;
    }
    Stamped<T> chosen = *best;
    if (uniform) {
      // Every quorum member already holds chosen.ts, so any later quorum
      // meets it at that timestamp or newer: a write-back is a no-op.
      ++stats_->writeback_skips;
      return chosen;
    }
    // A value not yet known to rest on a majority could show a later
    // reader an older value (new-old inversion): failing the write-back
    // fails the read.
    if (!phase(io, Kind::kStore, chosen)) return std::nullopt;
    ++stats_->writebacks;
    return chosen;
  }

 private:
  // One quorum phase under a fresh op id. The id stays fixed across
  // attempts, so a straggling reply to an earlier broadcast still
  // counts; the backoff wait keeps pumping, so a late quorum ends it.
  template <class Io>
  bool phase(Io& io, Kind kind, const Stamped<T>& req) {
    ++stats_->phases;
    ++op_;
    seen_ = 0;
    replies_.clear();
    for (unsigned attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      if (attempt > 0) ++stats_->retries;
      io.broadcast(kind, op_, req);
      if (io.await(retry_.attempt)) return true;
      if (attempt + 1 == retry_.max_attempts) break;
      if (io.await(backoff_window(retry_.backoff_base, retry_.backoff_cap,
                                  attempt, jitter_))) {
        return true;
      }
    }
    ++stats_->unavailable;
    return false;
  }

  int replicas_;
  int quorum_;
  RetryPolicy retry_;
  Rng jitter_;
  ClientStats* stats_;
  std::uint64_t op_ = 0;    // current phase's op id
  std::uint64_t seen_ = 0;  // replicas that answered it
  std::vector<Stamped<T>> replies_;
};

template <typename T>
class Replica {
 public:
  // A fresh replica holds (0, initial) and serves.
  Replica(int node, int f, T initial)
      : node_(node), f_(f), state_{0, std::move(initial)} {
    COMPREG_CHECK(f >= 1 && f <= 31, "need 1 <= f <= 31 (64-bit masks)");
    COMPREG_CHECK(node >= 0 && node <= 2 * f, "replica id out of range");
  }

  const Stamped<T>& state() const { return state_; }
  bool serving() const { return serving_; }
  std::uint64_t incarnation() const { return incarnation_; }

  // (Re)start from stable storage. Nothing stable means nothing was ever
  // acknowledged, so the replica serves at once; otherwise it opens a
  // catch-up round tagged `incarnation` and returns true — the driver
  // then sends SYNC-REQ(incarnation) to every peer.
  template <class Durable>
  bool rejoin(const Durable& durable, std::uint64_t incarnation) {
    state_ = Stamped<T>{durable.ts(), durable.value()};
    incarnation_ = incarnation;
    sync_mask_ = 0;
    serving_ = state_.ts == 0;
    return !serving_;
  }

  // STORE: adopt if newer, persist, then ack with the stored timestamp.
  // nullopt = stay silent (catching up; clients read it as loss).
  template <class Durable>
  std::optional<std::uint64_t> on_store(Durable& durable, std::uint64_t ts,
                                        const T& val) {
    if (!serving_) return std::nullopt;
    adopt(ts, val);
    durable.persist(state_.ts, state_.val);
    return state_.ts;
  }

  // QUERY and SYNC-REQ: the current state, only while serving. A
  // catching-up replica that answered would let two amnesiacs vouch for
  // each other.
  std::optional<Stamped<T>> on_query() const {
    if (!serving_) return std::nullopt;
    return state_;
  }

  // SYNC-REPLY from `peer` to catch-up round `incarnation`. Returns true
  // when this reply completes the read quorum (self + f distinct peers):
  // the state is persisted once and the replica serves again.
  template <class Durable>
  bool on_sync_reply(Durable& durable, std::uint64_t incarnation, int peer,
                     std::uint64_t ts, const T& val) {
    if (serving_ || incarnation != incarnation_) return false;
    if (peer < 0 || peer > 2 * f_ || peer == node_) return false;
    adopt(ts, val);
    const std::uint64_t bit = std::uint64_t{1} << static_cast<unsigned>(peer);
    if ((sync_mask_ & bit) != 0) return false;
    sync_mask_ |= bit;
    if (std::popcount(sync_mask_) < f_) return false;
    durable.persist(state_.ts, state_.val);
    serving_ = true;
    return true;
  }

 private:
  void adopt(std::uint64_t ts, const T& val) {
    if (ts <= state_.ts) return;
    state_.ts = ts;
    state_.val = val;
  }

  int node_;
  int f_;
  Stamped<T> state_;
  bool serving_ = true;
  std::uint64_t incarnation_ = 0;  // current catch-up round
  std::uint64_t sync_mask_ = 0;    // peers heard this round
};

}  // namespace compreg::net::abd

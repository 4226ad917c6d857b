// Pseudo read-modify-write (PRMW) objects — the paper's motivating
// application (references [6,7], discussed in Sections 1 and 5).
//
// A PRMW operation modifies a shared variable as a function of its old
// value but returns nothing. Anderson & Groselj show that any object
// whose operations are reads, writes, and *commutative* PRMW updates is
// wait-free implementable from composite registers — in sharp contrast
// to true RMW (fetch&add returning the old value), which provably
// cannot be built from atomic registers without waiting [4,14].
//
// Construction: each process owns one component holding the Op-fold of
// its local updates; apply() is a single-component Write of the new
// local fold (no snapshot needed — commutativity is what makes the
// per-process decomposition sound), and read() is one atomic scan
// folded across components. Both are wait-free, and read() is exact
// even under concurrent updates (a property a sharded counter with
// unsynchronized reads does not have).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/composite_register.h"
#include "core/item.h"
#include "core/snapshot.h"
#include "util/assert.h"

namespace compreg::prmw {

// Commutative monoid: identity() and an associative, commutative
// combine().
struct AddOp {
  using value_type = std::int64_t;
  static value_type identity() { return 0; }
  static value_type combine(value_type a, value_type b) { return a + b; }
};

struct MaxOp {
  using value_type = std::int64_t;
  static value_type identity() { return INT64_MIN; }
  static value_type combine(value_type a, value_type b) {
    return std::max(a, b);
  }
};

struct BitOrOp {
  using value_type = std::uint64_t;
  static value_type identity() { return 0; }
  static value_type combine(value_type a, value_type b) { return a | b; }
};

template <typename Op>
class PrmwObject {
 public:
  using value_type = typename Op::value_type;

  // `snapshot` must have one component per process; pass
  // make_prmw<Op>() for the default Anderson-backed object.
  PrmwObject(int processes, std::unique_ptr<core::Snapshot<value_type>> snap)
      : n_(processes), snap_(std::move(snap)) {
    COMPREG_CHECK(snap_ != nullptr);
    COMPREG_CHECK(snap_->components() == processes);
    local_.assign(static_cast<std::size_t>(n_), Op::identity());
  }

  int processes() const { return n_; }
  int readers() const { return snap_->readers(); }

  // PRMW update by `process`: fold `delta` into the object. Wait-free;
  // one component Write.
  void apply(int process, value_type delta) {
    COMPREG_DCHECK(process >= 0 && process < n_);
    value_type& mine = local_[static_cast<std::size_t>(process)];
    mine = Op::combine(mine, delta);
    snap_->update(process, mine);
  }

  // Exact current value: one atomic scan, folded. Wait-free; the scan
  // buffer is the calling thread's, so a warm read allocates nothing.
  value_type read(int reader_id) {
    thread_local std::vector<core::Item<value_type>> items;
    snap_->scan_items(reader_id, items);
    value_type acc = Op::identity();
    for (const core::Item<value_type>& item : items) {
      acc = Op::combine(acc, item.val);
    }
    return acc;
  }

 private:
  const int n_;
  std::unique_ptr<core::Snapshot<value_type>> snap_;
  std::vector<value_type> local_;  // local_[p]: process p's private fold
};

// Default factory: Anderson composite-register backend.
// audit: exempt(blocking, construction-time factory - allocation happens before the object is shared, never on an op path)
template <typename Op>
PrmwObject<Op> make_prmw(int processes, int readers) {
  using V = typename Op::value_type;
  return PrmwObject<Op>(
      processes, std::make_unique<core::CompositeRegister<V>>(
                     processes, readers, Op::identity()));
}

// A wait-free exact counter: increment/add without returning the old
// value (PRMW), read via snapshot.
class Counter {
 public:
  Counter(int processes, int readers)
      : obj_(make_prmw<AddOp>(processes, readers)) {}

  void add(int process, std::int64_t delta) { obj_.apply(process, delta); }
  void increment(int process) { add(process, 1); }
  std::int64_t read(int reader_id) { return obj_.read(reader_id); }

 private:
  PrmwObject<AddOp> obj_;
};

}  // namespace compreg::prmw

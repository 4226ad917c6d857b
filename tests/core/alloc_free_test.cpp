// Allocation regression test for the composite register's operation
// paths. This binary replaces the global operator new with a counting
// one, so it lives alone: every other test links the library's default
// allocator.
//
// Pinned facts, at C = R = 4 after one warm-up operation per slot:
//   * a Read (scan_items) and a prmw::Counter::read allocate nothing —
//     Y[0] records copy inline and the b/d buffers belong to the slot;
//   * a 0-Write allocates exactly HazardCell's one node per Y[0] write,
//     i.e. 2 (Figure 3 statements 3 and 7).
// It also pins InlineVec's two storage paths, and that a level past the
// inline reader bound (C = 3, R = 16) really takes the heap path, which
// is what composite_property_test's fallback sweeps rely on.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/composite_register.h"
#include "core/inline_vec.h"
#include "prmw/prmw.h"

namespace {

// Allocations made by this thread (the tests are single-threaded; the
// counter is per thread so gtest's own threads, if any, cannot leak in).
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  ++t_allocs;
  void* p = nullptr;
  const std::size_t bytes = n == 0 ? 1 : n;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace compreg::core {
namespace {

// Allocations this thread made since construction.
class AllocWindow {
 public:
  std::uint64_t count() const { return t_allocs - start_; }

 private:
  std::uint64_t start_ = t_allocs;
};

using Reg = CompositeRegister<std::uint64_t>;

// One scan per reader slot and one write per component: fills the
// thread-local op counters, the caller's output vector and the
// HazardCell retired lists' reserved capacity.
void warm_up(Reg& reg, std::vector<Item<std::uint64_t>>& out) {
  for (int j = 0; j < reg.readers(); ++j) reg.scan_items(j, out);
  for (int k = 0; k < reg.components(); ++k) reg.update(k, 1);
}

TEST(AllocFreeTest, WarmScanAllocatesNothing) {
  Reg reg(4, 4, 0);
  std::vector<Item<std::uint64_t>> out;
  warm_up(reg, out);
  for (int n = 0; n < 64; ++n) {
    const int j = n % reg.readers();
    const AllocWindow window;
    reg.scan_items(j, out);
    ASSERT_EQ(window.count(), 0u) << "scan " << n << " on reader " << j;
  }
}

// A 0-Write writes Y[0] twice (statements 3 and 7) and HazardCell's
// write allocates its one documented node; everything else — the Z
// reads, the statement-4 scan, the record itself — is allocation-free.
// A k-Write is the 0-Write of the register k levels down, except the
// last component, whose level is the C = 1 base case (one write).
TEST(AllocFreeTest, WarmWriteAllocatesOneNodePerY0Write) {
  Reg reg(4, 4, 0);
  std::vector<Item<std::uint64_t>> out;
  warm_up(reg, out);
  for (std::uint64_t i = 2; i < 34; ++i) {
    for (int k = 0; k < reg.components(); ++k) {
      const AllocWindow window;
      reg.update(k, i);
      ASSERT_EQ(window.count(), k + 1 < reg.components() ? 2u : 1u)
          << "write " << i << " to component " << k;
    }
  }
}

TEST(AllocFreeTest, WarmCounterReadAllocatesNothing) {
  prmw::Counter counter(4, 4);
  for (int j = 0; j < 4; ++j) (void)counter.read(j);
  for (int p = 0; p < 4; ++p) counter.increment(p);
  for (int n = 0; n < 64; ++n) {
    const AllocWindow window;
    const std::int64_t got = counter.read(n % 4);
    ASSERT_EQ(window.count(), 0u) << "read " << n;
    ASSERT_EQ(got, 4);
  }
}

// Past the inline bound the record falls back to the heap: at C = 3,
// R = 16 the inner levels have 17 and 18 reader slots, so their Y[0]
// copies allocate. (Allocation-free is a steady-state property of the
// inline sizes, not a promise at every shape.)
TEST(AllocFreeTest, LevelPastInlineReaderBoundTakesHeapPath) {
  Reg reg(3, 16, 0);
  std::vector<Item<std::uint64_t>> out;
  warm_up(reg, out);
  const AllocWindow window;
  reg.scan_items(0, out);
  EXPECT_GT(window.count(), 0u);
}

// Up to N elements a copy, assignment or move allocates nothing.
TEST(InlineVecTest, InlineCopiesAllocateNothing) {
  const InlineVec<std::uint64_t, 4> a(4, 7);
  const AllocWindow window;
  InlineVec<std::uint64_t, 4> b(a);
  InlineVec<std::uint64_t, 4> c(4, 0);
  c = b;
  InlineVec<std::uint64_t, 4> d(std::move(c));
  EXPECT_EQ(window.count(), 0u);
  ASSERT_EQ(d.size(), 4u);
  for (std::uint64_t v : d) EXPECT_EQ(v, 7u);
}

// Past N a copy is one heap block (the short strings here allocate
// nothing themselves) and a move hands the block over.
TEST(InlineVecTest, HeapFallbackBehavesLikeAVector) {
  InlineVec<std::string, 2> a(3, "heap");
  a[1] = "middle";
  {
    const AllocWindow window;
    const InlineVec<std::string, 2> copy(a);
    EXPECT_EQ(window.count(), 1u);
  }
  InlineVec<std::string, 2> b(a);
  a[1] = "changed";
  EXPECT_EQ(b[1], "middle");
  const AllocWindow window;
  InlineVec<std::string, 2> c(std::move(b));
  EXPECT_EQ(window.count(), 0u);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move): pinned
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0], "heap");
  EXPECT_EQ(c[1], "middle");
}

// Assignment between lengths on either side of N switches storage.
TEST(InlineVecTest, AssignmentAcrossStoragePaths) {
  InlineVec<std::string, 2> v(1, "inline");
  const InlineVec<std::string, 2> big(5, "heap");
  v = big;
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[4], "heap");
  v = InlineVec<std::string, 2>(2, "back");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "back");
  EXPECT_EQ(v[1], "back");
  {
    const AllocWindow window;
    const InlineVec<std::string, 2> copy(v);
    EXPECT_EQ(window.count(), 0u);
  }
  v = InlineVec<std::string, 2>();
  EXPECT_EQ(v.size(), 0u);
}

}  // namespace
}  // namespace compreg::core

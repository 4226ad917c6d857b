// InlineVec<T, N>: a fixed-length array that keeps up to N elements
// inside the object and moves to one heap block only past that bound —
// the storage of the composite register's Y[0] record fields (see
// composite_register.h).
//
// A Y[0] record is copied on every base-register read and write. Held
// in std::vector, each of its array fields cost one malloc/free pair per
// copy, which dominated a Read's wall clock. With at most N elements an
// InlineVec copies like a plain struct (the live elements only, in
// place; nothing is allocated); a longer one behaves like a vector that
// owns exactly its length.
//
// The length is fixed when the value is built: Y[0]'s seq and ss hold
// one entry per reader and per component for the register's lifetime,
// so there is no push_back or resize. A copy or move takes the source's
// length.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace compreg::core {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(N >= 1);

 public:
  InlineVec() = default;

  InlineVec(std::size_t n, const T& value) {
    build(n, [&](T* p) { std::uninitialized_fill_n(p, n, value); });
  }

  InlineVec(const InlineVec& other) { copy_from(other); }

  InlineVec(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    steal_from(other);
  }

  InlineVec& operator=(const InlineVec& other) {
    if (this == &other) return *this;
    if (size_ == other.size_) {
      // The steady state: every record of one recursion level has the
      // same length, so assignment is an element-wise copy.
      std::copy(other.begin(), other.end(), begin());
    } else {
      release();
      copy_from(other);
    }
    return *this;
  }

  InlineVec& operator=(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T> &&
      std::is_nothrow_move_assignable_v<T>) {
    if (this == &other) return *this;
    if (size_ == other.size_ && other.heap_ == nullptr) {
      std::move(other.begin(), other.end(), begin());
    } else {
      release();
      steal_from(other);
    }
    return *this;
  }

  ~InlineVec() { release(); }

  std::size_t size() const { return size_; }

  T* data() { return heap_ != nullptr ? heap_ : inline_data(); }
  const T* data() const {
    return heap_ != nullptr ? heap_ : inline_data();
  }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

 private:
  T* inline_data() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_data() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  // Takes storage for n elements (inline when n <= N) and constructs
  // them with init(p); on a throwing init the block is given back.
  template <typename Init>
  void build(std::size_t n, Init init) {
    // audit: exempt(blocking, heap fallback only past the inline bound N - a register whose level exceeds it allocates one block per record copy, exactly what std::vector did)
    T* heap = n > N ? std::allocator<T>().allocate(n) : nullptr;
    try {
      init(heap != nullptr ? heap : inline_data());
    } catch (...) {
      if (heap != nullptr) std::allocator<T>().deallocate(heap, n);
      throw;
    }
    heap_ = heap;
    size_ = n;
  }

  void copy_from(const InlineVec& other) {
    build(other.size_, [&](T* p) {
      std::uninitialized_copy(other.begin(), other.end(), p);
    });
  }

  // A heap block changes owner; inline elements are moved one by one
  // and the source keeps its (moved-from) elements and length.
  void steal_from(InlineVec& other) {
    if (other.heap_ != nullptr) {
      heap_ = std::exchange(other.heap_, nullptr);
      size_ = std::exchange(other.size_, 0);
      return;
    }
    std::uninitialized_move(other.begin(), other.end(), inline_data());
    size_ = other.size_;
  }

  void release() {
    std::destroy(begin(), end());
    if (heap_ != nullptr) std::allocator<T>().deallocate(heap_, size_);
    heap_ = nullptr;
    size_ = 0;
  }

  T* heap_ = nullptr;  // null while the elements are inline
  std::size_t size_ = 0;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace compreg::core

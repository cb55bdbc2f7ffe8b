#pragma once
// Small sequence container with inline storage for the router hot path.
//
// The first N elements live inside the object — push_back/erase on a
// typical cycle (a handful of pending NACKs or queued control signals)
// never touch the heap. Growing past N spills the whole contents into a
// backing std::vector which is then kept for the container's remaining
// lifetime (its capacity is never released), so even a transient spike
// causes at most one allocation ever, not one per cycle. The inline slots
// are raw until pushed (RawSlots), so an empty InlineVec costs nothing to
// build.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/raw_slots.hpp"

namespace ftnoc {

template <typename T, std::size_t N>
class InlineVec {
 public:
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  void push_back(const T& v) {
    if (spilled_) {
      heap_.push_back(v);
    } else if (size_ == N) {
      spill();
      heap_.push_back(v);
    } else {
      inline_.put(size_, v);
    }
    ++size_;
  }

  /// Inserts `v` before index `i` (i == size() appends), shifting the
  /// tail right.
  void insert_at(std::size_t i, const T& v) {
    FTNOC_CHECK(i <= size_);
    push_back(v);  // Grows (and spills if needed); value placed below.
    T* d = data();
    std::move_backward(d + i, d + size_ - 1, d + size_);
    d[i] = v;
  }

  /// Erases the element at index `i`, shifting the tail left (preserves
  /// the order of the remaining elements).
  void erase_at(std::size_t i) {
    FTNOC_CHECK(i < size_);
    T* d = data();
    std::move(d + i + 1, d + size_, d + i);
    --size_;
    if (spilled_) {
      heap_.pop_back();
      if (size_ <= N) unspill();
    }
  }

  void clear() {
    size_ = 0;
    if (spilled_) {
      heap_.clear();
      spilled_ = false;
    }
  }

 private:
  void spill() {
    heap_.clear();
    heap_.reserve(2 * N);
    heap_.insert(heap_.end(), inline_.data(), inline_.data() + size_);
    spilled_ = true;
  }

  void unspill() {
    for (std::size_t i = 0; i < size_; ++i) inline_.put(i, heap_[i]);
    heap_.clear();  // Capacity retained for the next spike.
    spilled_ = false;
  }

  T* data() { return spilled_ ? heap_.data() : inline_.data(); }
  const T* data() const { return spilled_ ? heap_.data() : inline_.data(); }

  std::size_t size_ = 0;
  bool spilled_ = false;
  RawSlots<T, N> inline_;
  std::vector<T> heap_;
};

}  // namespace ftnoc

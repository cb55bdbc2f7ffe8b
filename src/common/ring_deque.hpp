#pragma once
// Double-ended FIFO over one power-of-two ring, for queues that most
// instances never use. It allocates nothing until the first push, where
// libstdc++'s std::deque allocates a map and a 512-byte node as soon as it
// is constructed. The ring doubles when full and never shrinks.

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace ftnoc {

template <typename T>
class RingDeque {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// i-th element counted from the front.
  T& operator[](std::size_t i) {
    FTNOC_DCHECK(i < size_);
    return ring_[(head_ + i) & mask()];
  }
  const T& operator[](std::size_t i) const {
    FTNOC_DCHECK(i < size_);
    return ring_[(head_ + i) & mask()];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  void push_back(T v) {
    grow_if_full();
    ring_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  void push_front(T v) {
    grow_if_full();
    head_ = (head_ + mask()) & mask();
    ring_[head_] = std::move(v);
    ++size_;
  }

  void pop_front() {
    FTNOC_DCHECK(size_ > 0);
    ring_[head_] = T{};  // Release what the caller did not move out.
    head_ = (head_ + 1) & mask();
    --size_;
  }

 private:
  std::size_t mask() const { return ring_.size() - 1; }

  void grow_if_full() {
    if (size_ < ring_.size()) return;
    std::vector<T> next(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & mask()]);
    }
    ring_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> ring_;  ///< Empty, or a power-of-two number of slots.
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ftnoc

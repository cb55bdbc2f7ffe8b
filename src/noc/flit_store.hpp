#pragma once
// Structure-of-arrays flit storage for the router's input VCs.
//
// The optimized router keeps every input-VC buffer in one contiguous
// gid-major slab (a span of the router's storage block) instead of a
// heap-allocated queue per VC. FlitRing is the non-owning ring view over
// one VC's window of that slab; it exposes only the queue operations the
// phase code uses, so the phases stay layout-agnostic while the storage
// itself is cache-linear in ascending-gid order. The slab is raw until
// written: a slot's flit begins its lifetime at push_back, and
// construction writes none. Each window is its VC's private
// vc_buffer_depth-flit buffer (DESIGN.md §4.11).

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/check.hpp"
#include "core/flit.hpp"

namespace ftnoc {

class FlitRing {
 public:
  /// Points this ring at a `cap`-slot window of the shared slab and
  /// empties it. Must be called before the first push, and again if the
  /// slab ever reallocates (it never does after construction).
  void bind(Flit* base, std::uint16_t cap) {
    base_ = base;
    cap_ = cap;
    head_ = 0;
    size_ = 0;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  Flit& front() {
    FTNOC_DCHECK(size_ > 0);
    return base_[head_];
  }
  const Flit& front() const {
    FTNOC_DCHECK(size_ > 0);
    return base_[head_];
  }

  /// i-th element counted from the front.
  Flit& operator[](std::size_t i) {
    FTNOC_DCHECK(i < size_);
    return base_[wrap(head_ + i)];
  }
  const Flit& operator[](std::size_t i) const {
    FTNOC_DCHECK(i < size_);
    return base_[wrap(head_ + i)];
  }

  /// Copies `v` into the next free slot and returns it, so the caller can
  /// stamp per-hop fields in place.
  Flit& push_back(const Flit& v) {
    FTNOC_CHECK(size_ < cap_);
    Flit* slot = base_ + wrap(head_ + size_);
    ++size_;
    return *std::construct_at(slot, v);
  }

  /// Drops the front flit. Its slot is not written again until the
  /// ring's next push, so a reference taken from front() before the pop
  /// stays valid until then.
  void pop_front() {
    FTNOC_DCHECK(size_ > 0);
    head_ = static_cast<std::uint16_t>(wrap(head_ + 1));
    --size_;
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= cap_ ? i - cap_ : i;
  }

  Flit* base_ = nullptr;
  std::uint16_t cap_ = 0;
  std::uint16_t head_ = 0;
  std::uint16_t size_ = 0;
};

}  // namespace ftnoc

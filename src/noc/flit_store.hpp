#pragma once
// Structure-of-arrays flit storage for the router's input VCs.
//
// The optimized router keeps every input-VC buffer in one contiguous
// gid-major slab (`std::vector<Flit>`, stride = vc_buffer_depth) instead
// of a heap-allocated queue per VC. FlitRing is the non-owning ring view
// over one VC's window of that slab; it exposes only the queue operations
// the phase code uses, so the phases stay layout-agnostic
// while the storage itself is cache-linear in ascending-gid order — the
// same decoupling of logical VC queues from physical buffer storage that
// DAMQ organizations argue for.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/check.hpp"
#include "core/buffer_policy.hpp"
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

  void push_back(Flit v) {
    FTNOC_CHECK(size_ < cap_);
    base_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

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

/// Policy-dispatching input-VC FIFO (DESIGN.md §4.11): a FlitRing view
/// into the slab (private_vc/voq and the local port), or one logical
/// queue of the port's shared DamqPool under damq. Same surface as
/// FlitRing, so the phase code stays buffer-policy-blind. The pool
/// pointer is set once at construction and never changes, so the branch
/// predicts perfectly on the private path (the golden digests pin that
/// path byte-identical to the pre-policy layout).
class FlitBuf {
 public:
  void bind(Flit* base, std::uint16_t cap) { ring_.bind(base, cap); }
  /// Routes this VC's accesses to `vc`'s queue of the port pool instead
  /// of the bound ring.
  void use_pool(DamqPool<Flit>* pool, int vc) {
    pool_ = pool;
    pool_vc_ = vc;
  }

  bool empty() const { return pool_ ? pool_->empty(pool_vc_) : ring_.empty(); }
  std::size_t size() const {
    return pool_ ? static_cast<std::size_t>(pool_->size(pool_vc_))
                 : ring_.size();
  }
  Flit& front() { return pool_ ? pool_->front(pool_vc_) : ring_.front(); }
  const Flit& front() const {
    return pool_ ? pool_->front(pool_vc_) : ring_.front();
  }
  /// i-th element counted from the front. O(i) on the pool path — used
  /// by the state digest only, never by the per-cycle phases.
  const Flit& operator[](std::size_t i) const {
    return pool_ ? pool_->at(pool_vc_, static_cast<int>(i)) : ring_[i];
  }
  void push_back(Flit v) {
    if (pool_) {
      pool_->push_back(pool_vc_, std::move(v));
    } else {
      ring_.push_back(std::move(v));
    }
  }
  void pop_front() {
    if (pool_) {
      pool_->pop_front(pool_vc_);
    } else {
      ring_.pop_front();
    }
  }

 private:
  FlitRing ring_;
  DamqPool<Flit>* pool_ = nullptr;
  int pool_vc_ = 0;
};

}  // namespace ftnoc

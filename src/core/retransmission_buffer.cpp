#include "core/retransmission_buffer.hpp"

#include <new>

#include "common/check.hpp"

namespace ftnoc {

RetransmissionBuffer::RetransmissionBuffer(int depth, Cycle nack_window)
    : RetransmissionBuffer(nullptr, depth, nack_window) {}

RetransmissionBuffer::RetransmissionBuffer(Slot* slots, int depth,
                                           Cycle nack_window)
    : slots_(slots), nack_window_(nack_window), depth_(depth) {
  FTNOC_CHECK(depth >= 1);
  FTNOC_CHECK(nack_window >= 1);
  if (slots_ == nullptr) {
    owned_ = std::make_unique<Slot[]>(static_cast<std::size_t>(depth));
    slots_ = owned_.get();
  }
}

void RetransmissionBuffer::insert_at(int i, const Flit& f, Cycle sent_at,
                                     bool credit_held) {
  FTNOC_CHECK(free_slots() > 0);
  for (int k = occupancy(); k > i; --k) ::new (&at(k)) Slot(at(k - 1));
  ::new (&at(i)) Slot{f, sent_at, credit_held};
}

void RetransmissionBuffer::erase_at(int i) {
  if (i == 0) {
    head_ = head_ + 1 == depth_ ? 0 : head_ + 1;
    return;
  }
  const int last = occupancy() - 1;
  for (int k = i; k < last; ++k) at(k) = at(k + 1);
}

void RetransmissionBuffer::record_transmission(const Flit& f, Cycle now) {
  // If the transmitted flit is the front of the pending region, this
  // transmission consumes it (replay or absorbed-flit send): the slot
  // becomes the newest sent entry in place.
  if (pending_ > 0) {
    Slot& front = at(sent_);
    if (front.flit.packet_id == f.packet_id && front.flit.seq == f.seq) {
      front.flit = f;
      front.sent_at = now;
      ++sent_;
      --pending_;
      return;
    }
  }
  if (occupancy() >= depth_) {
    // Barrel-shifter retirement: the oldest sent flit falls off. Callers
    // process NACKs before transmitting, so its NACK window has passed.
    FTNOC_CHECK(sent_ > 0);
    FTNOC_DCHECK(now - at(0).sent_at >= nack_window_);
    erase_at(0);
    --sent_;
  }
  // A fresh send goes behind the sent region, ahead of any pending flits
  // (a deadlock-recovery waiter's, queued behind this owner). With none
  // pending, that is the one write of the free slot at(sent_).
  insert_at(sent_, f, now, false);
  ++sent_;
}

void RetransmissionBuffer::retire_expired(Cycle now) {
  while (sent_ > 0 && now - at(0).sent_at > nack_window_) {
    erase_at(0);
    --sent_;
  }
}

int RetransmissionBuffer::on_nack() {
  // Sent flits are older than anything already pending, so moving the
  // boundary back to the head preserves replay order.
  const int n = sent_;
  for (int i = 0; i < n; ++i) at(i).credit_held = true;
  pending_ += n;
  sent_ = 0;
  return n;
}

const Flit& RetransmissionBuffer::front_pending() const {
  FTNOC_CHECK(pending_ > 0);
  return at(sent_).flit;
}

bool RetransmissionBuffer::front_pending_credit_held() const {
  FTNOC_CHECK(pending_ > 0);
  return at(sent_).credit_held;
}

Flit RetransmissionBuffer::pop_pending() {
  FTNOC_CHECK(pending_ > 0);
  Flit f = at(sent_).flit;
  erase_at(sent_);
  --pending_;
  return f;
}

void RetransmissionBuffer::absorb(const Flit& f) {
  insert_at(occupancy(), f, 0, /*credit_held=*/false);
  ++pending_;
}

void RetransmissionBuffer::push_pending_back(const Flit& f) {
  insert_at(occupancy(), f, 0, /*credit_held=*/true);
  ++pending_;
}

void RetransmissionBuffer::absorb_as_owner(const Flit& f,
                                           PacketId owner_pid) {
  int i = sent_;
  while (i < occupancy() && at(i).flit.packet_id == owner_pid) ++i;
  insert_at(i, f, 0, /*credit_held=*/false);
  ++pending_;
}

bool RetransmissionBuffer::contains_packet(PacketId pid) const {
  for (int i = 0; i < occupancy(); ++i) {
    if (at(i).flit.packet_id == pid) return true;
  }
  return false;
}

bool RetransmissionBuffer::has_pending_for(PacketId pid) const {
  for (int i = sent_; i < occupancy(); ++i) {
    if (at(i).flit.packet_id == pid) return true;
  }
  return false;
}

bool RetransmissionBuffer::pending_contains(PacketId pid,
                                            std::uint8_t seq) const {
  for (int i = sent_; i < occupancy(); ++i) {
    const Flit& f = at(i).flit;
    if (f.packet_id == pid && f.seq == seq) return true;
  }
  return false;
}

void RetransmissionBuffer::clear() {
  head_ = 0;
  sent_ = 0;
  pending_ = 0;
}

}  // namespace ftnoc

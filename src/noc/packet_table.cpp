#include "noc/packet_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "noc/digest.hpp"

namespace ftnoc {

PacketTable::Record& PacketTable::insert(PacketId pid, NodeId dest,
                                         std::uint32_t length, Cycle birth) {
  FTNOC_CHECK(length >= 1);
  FTNOC_DCHECK(pid != 0 && find(pid) == nullptr);
  // At most half full, so probe runs stay short.
  if ((size_ + 1) * 2 > slots_.size() || length > stride_) {
    std::size_t capacity = std::max<std::size_t>(slots_.size(), 16);
    while ((size_ + 1) * 2 > capacity) capacity *= 2;
    rehash(capacity, std::max<std::size_t>(stride_, length));
  }
  Record& r = slots_[free_slot(pid)];
  r = Record{.pid = pid, .birth = birth, .length = length, .dest = dest};
  ++size_;
  return r;
}

PacketTable::Record* PacketTable::find(PacketId pid) {
  if (slots_.empty()) return nullptr;
  for (std::size_t i = pid & mask(); slots_[i].pid != 0;
       i = (i + 1) & mask()) {
    if (slots_[i].pid == pid) return &slots_[i];
  }
  return nullptr;
}

const PacketTable::Record* PacketTable::find(PacketId pid) const {
  return const_cast<PacketTable*>(this)->find(pid);
}

void PacketTable::erase(PacketId pid) {
  Record* const r = find(pid);
  if (r == nullptr) return;
  if (digest_on_) sum_ -= record_hash(*r);
  // Backward-shift deletion: walk the probe run after the hole and pull
  // back every record whose home slot does not lie between the hole and
  // where it sits, so no lookup ever stops early at the freed slot.
  std::size_t hole = index_of(*r);
  for (std::size_t j = (hole + 1) & mask(); slots_[j].pid != 0;
       j = (j + 1) & mask()) {
    const std::size_t home = slots_[j].pid & mask();
    if (((j - home) & mask()) < ((j - hole) & mask())) continue;
    slots_[hole] = slots_[j];
    std::copy_n(&payloads_[j * stride_], slots_[j].length,
                &payloads_[hole * stride_]);
    hole = j;
  }
  slots_[hole] = Record{};
  --size_;
}

void PacketTable::rehash(std::size_t capacity, std::size_t stride) {
  std::vector<Record> old_slots = std::move(slots_);
  std::vector<std::uint64_t> old_payloads = std::move(payloads_);
  const std::size_t old_stride = stride_;
  slots_.assign(capacity, Record{});
  payloads_.assign(capacity * stride, 0);
  stride_ = stride;
  for (std::size_t i = 0; i < old_slots.size(); ++i) {
    const Record& r = old_slots[i];
    if (r.pid == 0) continue;
    const std::size_t j = free_slot(r.pid);
    slots_[j] = r;
    std::copy_n(&old_payloads[i * old_stride], r.length,
                &payloads_[j * stride_]);
  }
}

std::uint64_t PacketTable::record_hash(const Record& r) const {
  digest::Fnv h;
  h.mix(r.pid);
  h.mix(static_cast<std::uint64_t>(r.birth));
  h.mix(static_cast<std::uint64_t>(r.inject));
  h.mix(static_cast<std::uint64_t>(r.length) |
        static_cast<std::uint64_t>(r.seen) << 32);
  h.mix(static_cast<std::uint64_t>(r.bad) |
        static_cast<std::uint64_t>(r.dest) << 8);
  const std::uint64_t* const p = &payloads_[index_of(r) * stride_];
  for (std::uint32_t k = 0; k < r.length; ++k) h.mix(p[k]);
  return h.value();
}

std::uint64_t PacketTable::digest() const {
  if (!digest_on_) {
    for (const Record& r : slots_) {
      if (r.pid != 0) sum_ += record_hash(r);
    }
    digest_on_ = true;
  }
  return sum_;
}

}  // namespace ftnoc

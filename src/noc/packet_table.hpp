#pragma once
// PacketTable — the per-packet facts that no flit carries (DESIGN.md
// §4.11): the birth and injection cycles, the ground-truth payloads and
// the ejection progress. Only the source PE and the ejection port read
// them, so they live once per packet here instead of in every wire, ring
// and barrel copy of every flit.
//
// One flat open-addressed table keyed by packet id: a record and its
// payloads sit in two parallel arrays, so a packet costs no heap node of
// its own. Ids are handed out in increasing order, so the identity hash
// (id & mask) puts live packets in consecutive slots and a lookup almost
// always hits its home slot. Nothing is allocated until the first packet.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "core/flit.hpp"

namespace ftnoc {

class PacketTable {
 public:
  struct Record {
    PacketId pid = 0;  ///< 0 marks a free slot; packet ids start at 1.
    /// Cycle the packet was created at the source PE (total-latency
    /// reference point, including source queueing).
    Cycle birth = 0;
    /// Cycle the packet's header first entered the network (the PE put
    /// its first flit on the local channel, + 1). Message latency — the
    /// paper's headline metric — is tail ejection minus this. Zero until
    /// injection; E2E retransmissions keep the first attempt's stamp so
    /// the full recovery time is charged.
    Cycle inject = 0;
    std::uint32_t length = 0;  ///< Flits in the packet.
    /// Ejection progress of the current attempt: flits ejected so far and
    /// whether any of them arrived corrupt.
    std::uint32_t seen = 0;
    bool bad = false;
  };

  /// Opens the record of a packet fresh from TrafficSource::build_packet:
  /// the payloads are read back from its clean codewords.
  void open(const std::vector<Flit>& flits, Cycle birth);

  /// The live record of `pid`, or null. Valid until the next open() or
  /// erase().
  Record* find(PacketId pid);
  const Record* find(PacketId pid) const;

  /// Ground-truth payload of flit `seq` of `r`'s packet. Write through
  /// the mutable form only inside update().
  std::uint64_t payload(const Record& r, std::uint8_t seq) const {
    FTNOC_DCHECK(seq < r.length);
    return payloads_[index_of(r) * stride_ + seq];
  }
  std::uint64_t& payload(Record& r, std::uint8_t seq) {
    FTNOC_DCHECK(seq < r.length);
    return payloads_[index_of(r) * stride_ + seq];
  }

  /// Applies `fn` to `r`, keeping the digest cache current.
  template <typename Fn>
  void update(Record& r, Fn&& fn) {
    if (digest_on_) sum_ -= record_hash(r);
    fn(r);
    if (digest_on_) sum_ += record_hash(r);
  }

  /// Closes `pid`'s record (a no-op when there is none).
  void erase(PacketId pid);

  std::size_t size() const { return size_; }

  /// Order-free hash of every live record, payloads included. The first
  /// call hashes the whole table once and turns on a running sum that
  /// open(), update() and erase() keep current, so a run digested every
  /// cycle pays per change, not per live packet.
  std::uint64_t digest() const;

 private:
  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t index_of(const Record& r) const {
    return static_cast<std::size_t>(&r - slots_.data());
  }
  std::uint64_t record_hash(const Record& r) const;
  /// Rebuilds the arrays with `capacity` slots of `stride` payloads each.
  void rehash(std::size_t capacity, std::size_t stride);
  /// The first free slot of `pid`'s probe run.
  std::size_t free_slot(PacketId pid) const {
    std::size_t i = pid & mask();
    while (slots_[i].pid != 0) i = (i + 1) & mask();
    return i;
  }

  std::vector<Record> slots_;  ///< Empty, or a power-of-two count.
  /// Slot i's payloads are payloads_[i * stride_ .. + length).
  std::vector<std::uint64_t> payloads_;
  std::size_t stride_ = 0;  ///< Longest packet opened so far.
  std::size_t size_ = 0;
  mutable bool digest_on_ = false;
  mutable std::uint64_t sum_ = 0;
};

}  // namespace ftnoc

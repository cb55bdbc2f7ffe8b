#include "core/flit.hpp"

namespace ftnoc {
namespace {
const char* type_tag(FlitType t) {
  switch (t) {
    case FlitType::kHead: return "H";
    case FlitType::kBody: return "D";
    case FlitType::kTail: return "T";
    case FlitType::kHeadTail: return "HT";
  }
  return "?";
}
}  // namespace

std::string Flit::describe() const {
  return std::string(type_tag(type)) + std::to_string(seq) + " pkt=" +
         std::to_string(packet_id) + " " + std::to_string(src) + "->" +
         std::to_string(dest);
}

Flit make_flit(FlitType type, PacketId pid, NodeId src, NodeId dest,
               std::uint8_t seq, std::uint64_t payload) {
  Flit f;
  f.type = type;
  f.packet_id = pid;
  f.src = src;
  f.dest = dest;
  f.seq = seq;
  f.set_codeword(ecc::encode(payload));
  return f;
}

}  // namespace ftnoc

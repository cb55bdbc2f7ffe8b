// Unit tests for flit construction and the synthetic traffic sources.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "noc/digest.hpp"
#include "noc/packet_table.hpp"
#include "noc/traffic.hpp"

namespace ftnoc {
namespace {

TEST(Flit, MakeFlitEncodesPayload) {
  const Flit f = make_flit(FlitType::kHead, 7, 1, 2, 0, 0xABCDULL);
  EXPECT_EQ(ecc::decode(f.codeword()).data, 0xABCDULL);
  EXPECT_TRUE(is_head(f.type));
  EXPECT_FALSE(is_tail(f.type));
}

TEST(Flit, HeadTailPredicates) {
  EXPECT_TRUE(is_head(FlitType::kHeadTail));
  EXPECT_TRUE(is_tail(FlitType::kHeadTail));
  EXPECT_TRUE(is_tail(FlitType::kTail));
  EXPECT_FALSE(is_head(FlitType::kBody));
  EXPECT_FALSE(is_tail(FlitType::kBody));
}

TEST(Flit, DescribeMentionsPacketAndEndpoints) {
  const Flit f = make_flit(FlitType::kTail, 9, 3, 5, 3, 0);
  const std::string d = f.describe();
  EXPECT_NE(d.find("pkt=9"), std::string::npos);
  EXPECT_NE(d.find("3->5"), std::string::npos);
}

// --- Digest coverage --------------------------------------------------------
// The state digests see a flit only through digest::Fnv::mix_flit. A field
// it skips would let two routers disagree on that field while the
// differential comparison and the golden digests stay green.

std::uint64_t flit_hash(const Flit& f) {
  digest::Fnv h;
  h.mix_flit(f);
  return h.value();
}

Flit digest_base_flit() {
  Flit f = make_flit(FlitType::kBody, 0x1122334455667788ULL, 3, 9, 2,
                     0x0123456789ABCDEFULL);
  f.arrived_stamp = 120;
  f.vc = 1;
  f.hops = 4;
  return f;
}

TEST(FlitDigest, EachFieldChangesMixFlit) {
  const Flit base = digest_base_flit();
  const std::uint64_t h0 = flit_hash(base);
  const std::vector<std::pair<std::string, std::function<void(Flit&)>>>
      perturb = {
          {"packet_id", [](Flit& f) { ++f.packet_id; }},
          {"arrived_stamp", [](Flit& f) { ++f.arrived_stamp; }},
          {"code_lo", [](Flit& f) { f.code_lo ^= 1; }},
          {"code_lo bit 63", [](Flit& f) { f.code_lo ^= 1ULL << 63; }},
          {"code_hi", [](Flit& f) { f.code_hi ^= 1; }},
          {"code_hi bit 7", [](Flit& f) { f.code_hi ^= 0x80; }},
          {"src", [](Flit& f) { ++f.src; }},
          {"dest", [](Flit& f) { ++f.dest; }},
          {"type", [](Flit& f) { f.type = FlitType::kTail; }},
          {"seq", [](Flit& f) { ++f.seq; }},
          {"vc", [](Flit& f) { ++f.vc; }},
          {"hops", [](Flit& f) { ++f.hops; }},
      };
  for (const auto& [name, bump] : perturb) {
    Flit f = base;
    bump(f);
    EXPECT_NE(flit_hash(f), h0) << "mix_flit ignores Flit::" << name;
  }
}

// Field-agnostic form of the check above: flipping any byte of the flit
// that is not padding must change the digest, so a field added later but
// left out of mix_flit fails here without this test naming it. The only
// padding is the struct's tail after `hops`, its last field.
TEST(FlitDigest, EveryNonPaddingByteChangesMixFlit) {
  static_assert(std::is_trivially_copyable_v<Flit>);
  static_assert(sizeof(Flit) == 32);
  const std::size_t pad_begin = offsetof(Flit, hops) + sizeof(Flit::hops);
  EXPECT_EQ(pad_begin, 29u);  // 29 field bytes; a new field moves this.
  const Flit base = digest_base_flit();
  const std::uint64_t h0 = flit_hash(base);
  for (std::size_t i = 0; i < pad_begin; ++i) {
    unsigned char bytes[sizeof(Flit)];
    std::memcpy(bytes, &base, sizeof(Flit));
    bytes[i] ^= 0x01;  // Bit 0 keeps FlitType a valid enumerator.
    Flit f;
    std::memcpy(&f, bytes, sizeof(Flit));
    EXPECT_NE(flit_hash(f), h0) << "mix_flit ignores byte " << i;
  }
}

// The unrolled Fnv::mix must stay FNV-1a over the value's bytes, low byte
// first: the reference loop below is the definition.
TEST(FlitDigest, MixIsByteWiseFnv1a) {
  Rng rng(7);
  std::uint64_t ref = 0xcbf29ce484222325ull;
  digest::Fnv h;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = i == 0 ? ~0ull : rng.next_u64();
    for (int b = 0; b < 8; ++b) {
      ref ^= (v >> (b * 8)) & 0xffu;
      ref *= 0x100000001b3ull;
    }
    h.mix(v);
    ASSERT_EQ(h.value(), ref) << "value " << i;
  }
}

// Opens a `length`-flit packet from node 2 to node 3 with random payloads
// and checks every flit the table builds from its record: type, seq, src,
// dest, and a codeword that decodes clean to the record's payload.
void check_flits_from_record(std::uint32_t length,
                             const std::vector<FlitType>& types) {
  ASSERT_EQ(types.size(), length);
  PacketTable t;
  Rng rng(11);
  const PacketTable::Record& rec = t.open(
      /*pid=*/9, /*dest=*/3, length, /*birth=*/5,
      [&](std::uint32_t) { return rng.next_u64(); });
  for (std::uint8_t i = 0; i < length; ++i) {
    const Flit f = t.flit(rec, /*src=*/2, i);
    EXPECT_EQ(f.type, types[i]) << "flit " << int(i);
    EXPECT_EQ(f.packet_id, 9u);
    EXPECT_EQ(f.seq, i);
    EXPECT_EQ(f.src, 2);
    EXPECT_EQ(f.dest, 3);
    const ecc::DecodeResult d = ecc::decode(f.codeword());
    EXPECT_EQ(d.status, ecc::DecodeStatus::kClean);
    EXPECT_EQ(d.data, t.payload(rec, i)) << "flit " << int(i);
  }
}

TEST(TrafficPacket, StructureOfFourFlitPacket) {
  check_flits_from_record(4, {FlitType::kHead, FlitType::kBody,
                              FlitType::kBody, FlitType::kTail});
}

TEST(TrafficPacket, TwoFlitPacketIsHeadThenTail) {
  check_flits_from_record(2, {FlitType::kHead, FlitType::kTail});
}

TEST(TrafficPacket, SingleFlitPacketIsHeadTail) {
  check_flits_from_record(1, {FlitType::kHeadTail});
}

TEST(Destinations, UniformRandomNeverSelf) {
  Topology t(8, 8, false);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const NodeId src = static_cast<NodeId>(i % 64);
    const NodeId d = pick_destination(t, TrafficPattern::kUniformRandom, src,
                                      rng);
    EXPECT_NE(d, src);
    EXPECT_LT(d, 64);
  }
}

TEST(Destinations, UniformRandomCoversAllNodes) {
  Topology t(4, 4, false);
  Rng rng(7);
  std::map<NodeId, int> hits;
  for (int i = 0; i < 8000; ++i) {
    ++hits[pick_destination(t, TrafficPattern::kUniformRandom, 0, rng)];
  }
  EXPECT_EQ(hits.size(), 15u);  // Everyone but the source.
}

TEST(Destinations, BitComplementIsDeterministicAndInvolutive) {
  Topology t(8, 8, false);
  Rng rng(1);
  for (NodeId src = 0; src < 64; ++src) {
    const NodeId d =
        pick_destination(t, TrafficPattern::kBitComplement, src, rng);
    EXPECT_EQ(d, static_cast<NodeId>(~src & 63));
    // Complement of the complement returns home (remapped if self — never
    // the case for a power-of-two network).
    EXPECT_EQ(pick_destination(t, TrafficPattern::kBitComplement, d, rng),
              src);
  }
}

TEST(Destinations, TornadoMatchesClosedForm) {
  Topology t(8, 8, false);
  Rng rng(1);
  // dx = ceil(8/2) - 1 = 3 in each dimension.
  const NodeId d = pick_destination(t, TrafficPattern::kTornado, 0, rng);
  EXPECT_EQ(t.coord_of(d).x, 3);
  EXPECT_EQ(t.coord_of(d).y, 3);
}

TEST(Destinations, TornadoNeverSelf) {
  Topology t(4, 4, false);
  Rng rng(1);
  for (NodeId src = 0; src < 16; ++src) {
    EXPECT_NE(pick_destination(t, TrafficPattern::kTornado, src, rng), src);
  }
}

TEST(TrafficSource, GenerationRateMatchesInjectionRate) {
  Topology t(4, 4, false);
  const double inj = 0.2;  // flits/node/cycle; packets = inj / 4.
  TrafficSource src(t, 0, TrafficPattern::kUniformRandom, inj, 4, Rng(3));
  PacketTable packets;
  PacketId pid = 1;
  int generated = 0;
  const int cycles = 200'000;
  for (int c = 0; c < cycles; ++c) {
    if (const auto id = src.maybe_generate(pid, packets, c)) {
      packets.erase(*id);
      ++generated;
    }
  }
  const double rate = static_cast<double>(generated) / cycles;
  EXPECT_NEAR(rate, inj / 4, 0.005);
}

TEST(TrafficSource, PacketIdsAdvance) {
  Topology t(4, 4, false);
  TrafficSource src(t, 0, TrafficPattern::kUniformRandom, 1.0, 4, Rng(3));
  PacketTable packets;
  PacketId pid = 10;
  std::optional<PacketId> id;
  while (!(id = src.maybe_generate(pid, packets, 0))) {
  }
  EXPECT_EQ(*id, 10u);
  EXPECT_EQ(pid, 11u);
  const PacketTable::Record* rec = packets.find(10);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->length, 4u);
  EXPECT_NE(rec->dest, 0);
}

}  // namespace
}  // namespace ftnoc

// Memory-footprint guard: the heap a constructed network holds per node.
//
// Builds the 32x32 mesh-HBH point of the fabric_32x32 benchmark workload,
// and the same point under damq at its widest input rings, and reads the
// allocator's in-use byte count (glibc mallinfo2: small chunks plus
// mmapped blocks) before and after construction. Each budget sits about
// 10% above the measured footprint, so a change that fattens a per-node
// structure (a flit, a barrel, a wire, a PE lane, an input ring) fails
// here before it shows up as peak RSS in the benchmark.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/network.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FTNOC_ALLOCATOR_INTERPOSED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FTNOC_ALLOCATOR_INTERPOSED 1
#endif
#endif

namespace ftnoc {
namespace {

/// Measured 14.1 KiB per node on x86-64 glibc; the budget leaves about
/// 10% headroom (DESIGN.md section 4.10 has the per-structure table).
constexpr double kHeapKibPerNodeBudget = 15.5;
/// The same fabric under damq with reserve 1, the widest input rings
/// (K + V*(T-K) = 10 slots per link-port VC at V=3, T=4): measured
/// 18.6 KiB per node, budget about 10% above.
constexpr double kDamqHeapKibPerNodeBudget = 20.5;

#if !defined(FTNOC_ALLOCATOR_INTERPOSED) && defined(__GLIBC__)
// Heap held per node by a constructed 32x32 mesh-HBH network, plus the
// extra overrides; records it as the test's heap_kib_per_node property.
double heap_kib_per_node(const std::vector<std::string>& extra) {
  SimConfig cfg;
  std::vector<std::string> ov = {"mesh_width=32", "mesh_height=32",
                                 "protection=hbh", "link_error_rate=1e-4",
                                 "injection_rate=0.02"};
  ov.insert(ov.end(), extra.begin(), extra.end());
  const auto err = apply_overrides(cfg, ov);
  EXPECT_FALSE(err.has_value()) << *err;
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t before = in_use();
  auto net = std::make_unique<Network>(cfg);
  const std::size_t after = in_use();
  const double nodes = static_cast<double>(net->topology().num_nodes());
  const double kib = static_cast<double>(after - before) / 1024.0 / nodes;
  ::testing::Test::RecordProperty("heap_kib_per_node", std::to_string(kib));
  return kib;
}
#endif

TEST(Footprint, HeapBytesPerNode) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs the plain glibc allocator's mallinfo2()";
#else
  EXPECT_LE(heap_kib_per_node({}), kHeapKibPerNodeBudget)
      << "a per-node structure grew";
#endif
}

TEST(Footprint, HeapBytesPerNodeDamqWidestRings) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs the plain glibc allocator's mallinfo2()";
#else
  EXPECT_LE(heap_kib_per_node({"buffer_policy=damq", "damq_reserve_slots=1"}),
            kDamqHeapKibPerNodeBudget)
      << "a per-node structure grew, or the damq rings outgrew K + V*(T-K)";
#endif
}

}  // namespace
}  // namespace ftnoc

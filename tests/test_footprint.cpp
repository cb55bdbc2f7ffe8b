// Memory-footprint guard: the heap a constructed network holds per node.
//
// Builds the 32x32 mesh-HBH point of the fabric_32x32 benchmark workload
// and reads the allocator's in-use byte count (glibc mallinfo2: small
// chunks plus mmapped blocks) before and after construction. The budget
// sits about 10% above the measured footprint, so a change that fattens a per-node
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

#if !defined(FTNOC_ALLOCATOR_INTERPOSED) && defined(__GLIBC__)
// Heap held per node by a constructed 32x32 mesh-HBH network; records it
// as the test's heap_kib_per_node property.
double heap_kib_per_node() {
  SimConfig cfg;
  const auto err = apply_overrides(
      cfg, {"mesh_width=32", "mesh_height=32", "protection=hbh",
            "link_error_rate=1e-4", "injection_rate=0.02"});
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
  EXPECT_LE(heap_kib_per_node(), kHeapKibPerNodeBudget)
      << "a per-node structure grew";
#endif
}

}  // namespace
}  // namespace ftnoc

// Memory-footprint guards: the heap a constructed network holds per node,
// and how many blocks it takes to build one.
//
// HeapBytesPerNode builds the 32x32 mesh-HBH point of the fabric_32x32
// benchmark workload and reads the allocator's in-use byte count (glibc
// mallinfo2: small chunks plus mmapped blocks) before and after
// construction. The budget sits about 10% above the measured footprint, so
// a change that fattens a per-node structure (a flit, a barrel, a wire, a
// PE lane, an input ring) fails here before it shows up as peak RSS in the
// benchmark.
//
// AllocationsPerNetwork counts global operator new calls while a network
// is built. A campaign builds one network per replica, so a per-node
// allocation is paid replicas x nodes times (DESIGN.md section 4.10,
// "Construction").

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
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

#if !defined(FTNOC_ALLOCATOR_INTERPOSED)
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<long> g_news{0};
}  // namespace

// Counting replacement of the global allocation function; the array and
// nothrow forms forward here. Sanitizer builds keep their own allocator.
void* operator new(std::size_t bytes) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ftnoc {
namespace {

/// Measured 13.0 KiB per node on x86-64 glibc; the budget leaves about
/// 10% headroom (DESIGN.md section 4.10 has the per-structure table).
constexpr double kHeapKibPerNodeBudget = 14.3;

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

#if !defined(FTNOC_ALLOCATOR_INTERPOSED)
// operator new calls made while building a mesh-HBH network of the given
// size (protection as in the Fig. 5 HBH series).
long news_to_build(int width, int height) {
  SimConfig cfg;
  const auto err = apply_overrides(
      cfg, {"mesh_width=" + std::to_string(width),
            "mesh_height=" + std::to_string(height), "protection=hbh",
            "link_error_rate=1e-3", "injection_rate=0.1"});
  EXPECT_FALSE(err.has_value()) << *err;
  g_news.store(0);
  g_count_news.store(true);
  auto net = std::make_unique<Network>(cfg);
  g_count_news.store(false);
  return g_news.load();
}
#endif

TEST(Footprint, AllocationsPerNetwork) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED)
  GTEST_SKIP() << "sanitizer builds replace operator new";
#else
  const long small = news_to_build(4, 4);
  const long large = news_to_build(8, 8);
  ::testing::Test::RecordProperty("news_4x4", std::to_string(small));
  ::testing::Test::RecordProperty("news_8x8", std::to_string(large));
  // Measured 61 (4x4) and 205 (8x8) on x86-64 glibc: 13 network-wide
  // blocks plus 3 per node (the Router, its storage block, the PE's lane
  // array). A vector per array and a bucket per wheel slot took 572 and
  // 1,484 (DESIGN.md section 4.10, "Construction").
  constexpr long kPerNode = 3;
  constexpr long kFixed = 16;
  EXPECT_LE(large - small, kPerNode * (64 - 16)) << "per-node blocks grew";
  EXPECT_LE(small, kFixed + kPerNode * 16) << "4x4: " << small;
  EXPECT_LE(large, kFixed + kPerNode * 64) << "8x8: " << large;
#endif
}

}  // namespace
}  // namespace ftnoc

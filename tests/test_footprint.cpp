// Memory-footprint guards: the heap a constructed network holds per node,
// and how many blocks it takes to build one.
//
// HeapBytesPerNode builds the 32x32 mesh-HBH point of the fabric_32x32
// benchmark workload and reads the allocator's in-use byte count (glibc
// mallinfo2: small chunks plus mmapped blocks) before and after
// construction. The budget sits about 10% above the measured footprint, so
// a change that fattens a per-node structure (a flit, a barrel, a wire, a
// PE lane, an input ring) fails here before it shows up as peak RSS in the
// benchmark. FaultedHeapBytesPerNode does the same for the workload's
// dead-link point after routing toward every destination, which is when
// the fault-aware distance rows exist.
//
// AllocationsPerNetwork counts global operator new calls while a network
// is built. A campaign builds one network per replica, so a per-node
// allocation is paid replicas x nodes times (DESIGN.md section 4.10,
// "Construction").
//
// SteadyStateAllocatesNothingPerPacket counts operator new calls over a
// loaded run after warm-up: the source side carries packet ids and the
// packet table reuses its slots, so a packet costs no heap block.
//
// NetworkIgnoresHeapContents guards the buffers that construction leaves
// raw (DESIGN.md section 4.11): it fills every fresh block with 0x00 in one
// run and 0xFF in another, and the two runs must agree on every cycle's
// state digest and on the JSONL line. A slot read before its first write
// shows up as a difference.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/network.hpp"
#include "noc/routing.hpp"
#include "noc/simulator.hpp"
#include "sweep/jsonl.hpp"
#include "sweep/sweep.hpp"

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
/// Byte every fresh block is filled with, or -1 to leave it as malloc
/// returns it.
std::atomic<int> g_fill{-1};
}  // namespace

// Counting, optionally filling replacement of the global allocation
// function; the array and nothrow forms forward here. Sanitizer builds
// keep their own allocator.
void* operator new(std::size_t bytes) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    const int fill = g_fill.load(std::memory_order_relaxed);
    if (fill >= 0) std::memset(p, fill, bytes);
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ftnoc {
namespace {

/// Measured 8.9 KiB per node on x86-64 glibc; the budget leaves about
/// 10% headroom (DESIGN.md section 4.10 has the per-structure table).
constexpr double kHeapKibPerNodeBudget = 9.7;
/// The adaptive network with the benchmark's 8 stagger dead links, after
/// every destination was routed once: measured 9.4 KiB per node, with the
/// same headroom. An all-pairs distance table (2 KiB per node at 32x32)
/// measured 11.2 KiB there and does not fit.
constexpr double kFaultedHeapKibPerNodeBudget = 10.3;

#if !defined(FTNOC_ALLOCATOR_INTERPOSED) && defined(__GLIBC__)
// Heap held per node by a 32x32 network built with `overrides` once
// `use(net)` has run; records it as the test's `property`.
template <typename Use>
double heap_kib_per_node(const std::vector<std::string>& overrides,
                         const std::string& property, Use&& use) {
  SimConfig cfg;
  std::vector<std::string> ov = {"mesh_width=32", "mesh_height=32"};
  ov.insert(ov.end(), overrides.begin(), overrides.end());
  const auto err = apply_overrides(cfg, ov);
  EXPECT_FALSE(err.has_value()) << *err;
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t before = in_use();
  auto net = std::make_unique<Network>(cfg);
  use(*net);
  const std::size_t after = in_use();
  const double nodes = static_cast<double>(net->topology().num_nodes());
  const double kib = static_cast<double>(after - before) / 1024.0 / nodes;
  ::testing::Test::RecordProperty(property, std::to_string(kib));
  return kib;
}
#endif

TEST(Footprint, HeapBytesPerNode) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs the plain glibc allocator's mallinfo2()";
#else
  // The mesh-HBH point of the fabric_32x32 benchmark workload.
  EXPECT_LE(heap_kib_per_node({"protection=hbh", "link_error_rate=1e-4",
                               "injection_rate=0.02"},
                              "heap_kib_per_node", [](Network&) {}),
            kHeapKibPerNodeBudget)
      << "a per-node structure grew";
#endif
}

TEST(Footprint, FaultedHeapBytesPerNode) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED) || !defined(__GLIBC__)
  GTEST_SKIP() << "needs the plain glibc allocator's mallinfo2()";
#else
  // The mesh-AD-deadlinks point of the fabric_32x32 benchmark workload:
  // distance rows are stored only for the 256 destinations the stagger
  // detours, not for all 1024.
  std::vector<std::string> ov = {"routing=adaptive", "adaptive_faults=1",
                                 "deadlock_recovery=1",
                                 "injection_rate=0.02"};
  for (int j = 0; j < 8; ++j) {
    ov.push_back("dead_link=" + std::to_string(j * 32 + 1 + j % 30) + ":E");
  }
  const double kib = heap_kib_per_node(
      ov, "faulted_heap_kib_per_node", [](Network& net) {
        const Topology& topo = net.topology();
        for (NodeId dest = 1; dest < topo.num_nodes(); ++dest) {
          ASSERT_NE(route(topo, RoutingAlgorithm::kMinimalAdaptive, 0, dest),
                    0);
        }
      });
  EXPECT_LE(kib, kFaultedHeapKibPerNodeBudget)
      << "per-destination fault state grew";
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
  // Measured 45 (4x4) and 141 (8x8) on x86-64 glibc: 13 network-wide
  // blocks plus 2 per node (the Router and its storage block; the PE's
  // lanes are inline). A vector per array and a bucket per wheel slot
  // took 572 and 1,484 (DESIGN.md section 4.10, "Construction").
  constexpr long kPerNode = 2;
  constexpr long kFixed = 16;
  EXPECT_LE(large - small, kPerNode * (64 - 16)) << "per-node blocks grew";
  EXPECT_LE(small, kFixed + kPerNode * 16) << "4x4: " << small;
  EXPECT_LE(large, kFixed + kPerNode * 64) << "8x8: " << large;
#endif
}

TEST(Footprint, SteadyStateAllocatesNothingPerPacket) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED)
  GTEST_SKIP() << "sanitizer builds replace operator new";
#else
  // The paper's 8x8 mesh at injection 0.25, under HBH and under E2E with
  // enough link errors to NACK packets: 5k cycles of warm-up grow every
  // queue, table and NACK slot to its working size, then 20k cycles are
  // counted.
  for (const char* protection : {"protection=hbh", "protection=e2e"}) {
    SCOPED_TRACE(protection);
    const bool e2e = std::string(protection) == "protection=e2e";
    SimConfig cfg;
    const auto err = apply_overrides(
        cfg, {"mesh_width=8", "mesh_height=8", protection,
              "injection_rate=0.25", e2e ? "link_error_rate=1e-2"
                                         : "link_error_rate=0"});
    ASSERT_FALSE(err.has_value()) << *err;
    Network net(cfg);
    net.stats().begin_measurement(0);  // Counts the E2E retransmissions.
    for (int c = 0; c < 5'000; ++c) net.step();
    const std::uint64_t created = net.stats().packets_created();
    g_news.store(0);
    g_count_news.store(true);
    for (int c = 0; c < 20'000; ++c) net.step();
    g_count_news.store(false);
    const long news = g_news.load();
    const std::uint64_t packets = net.stats().packets_created() - created;
    const std::string tag = e2e ? "_e2e" : "";
    ::testing::Test::RecordProperty("steady_news" + tag,
                                    std::to_string(news));
    ::testing::Test::RecordProperty("steady_packets" + tag,
                                    std::to_string(packets));
    ASSERT_GT(packets, 10'000u);
    if (e2e) {
      EXPECT_GT(net.stats().e2e_retransmits(), 0u);
    }
    // A heap vector per packet made this exactly 1 per packet under HBH;
    // a held-id set node and an ACK/NACK map node made it 2 under E2E.
    EXPECT_LT(static_cast<std::uint64_t>(news) * 100, packets)
        << news << " allocations for " << packets << " packets";
  }
#endif
}

#if !defined(FTNOC_ALLOCATOR_INTERPOSED)
// Fills every block allocated in its scope with `byte`.
class HeapFill {
 public:
  explicit HeapFill(int byte) { g_fill.store(byte); }
  ~HeapFill() { g_fill.store(-1); }
  HeapFill(const HeapFill&) = delete;
  HeapFill& operator=(const HeapFill&) = delete;
};

// The configurations whose buffers are raw until written: each protection
// scheme's barrel and wire traffic, the 4-stage staged register with
// stored-copy upsets, recovery absorption under mid-run kills, and a
// workload replay.
std::vector<std::pair<std::string, SimConfig>> poison_configs() {
  const std::vector<std::pair<std::string, std::vector<std::string>>> rows = {
      {"hbh_3stage", {"protection=hbh", "link_error_rate=1e-3"}},
      {"hbh_4stage_rtx",
       {"protection=hbh", "pipeline_stages=4", "retransmission_depth=4",
        "link_error_rate=1e-3", "rtx_error_rate=1e-2"}},
      {"e2e", {"protection=e2e", "link_error_rate=1e-1"}},
      {"fec", {"protection=fec", "link_error_rate=1e-3"}},
      {"adaptive_recovery_storm",
       {"routing=adaptive", "adaptive_faults=1", "num_vcs=1",
        "deadlock_recovery=1", "probe_threshold=16", "probe_backoff=8",
        "injection_rate=0.3", "storm_kill=200:5:E", "storm_kill=500:9:E",
        "storm_kill=800:6:N"}},
      {"workload", {"injection_rate=0", "run_to_drain=1"}},
  };
  std::vector<std::pair<std::string, SimConfig>> out;
  for (const auto& [name, overrides] : rows) {
    SimConfig cfg;
    std::vector<std::string> ov = {"mesh_width=4", "mesh_height=4",
                                   "injection_rate=0.1", "total_messages=300",
                                   "warmup_messages=50", "max_cycles=20000"};
    ov.insert(ov.end(), overrides.begin(), overrides.end());
    const auto err = apply_overrides(cfg, ov);
    EXPECT_FALSE(err.has_value()) << name << ": " << *err;
    if (name == "workload") {
      cfg.workload_text =
          "packet_flits 4\n"
          "many_to_one sink start=0 dest=0 flits=8 count=3 period=200 "
          "stagger=5\n"
          "all_to_all background start=0 flits=4 stagger=3\n";
    }
    EXPECT_EQ(cfg.validate(), std::nullopt) << name;
    out.emplace_back(name, cfg);
  }
  return out;
}

std::string jsonl_line(const SimConfig& cfg, int fill) {
  const HeapFill poison(fill);
  sweep::PointResult pr;
  pr.config = cfg;
  pr.results = Simulator(cfg).run();
  return sweep::to_jsonl(pr);
}
#endif

TEST(Footprint, NetworkIgnoresHeapContents) {
#if defined(FTNOC_ALLOCATOR_INTERPOSED)
  GTEST_SKIP() << "sanitizer builds replace operator new";
#else
  constexpr Cycle kCycles = 1500;
  for (const auto& [name, cfg] : poison_configs()) {
    std::unique_ptr<Network> zeros;
    std::unique_ptr<Network> ones;
    {
      const HeapFill poison(0x00);
      zeros = std::make_unique<Network>(cfg);
    }
    {
      const HeapFill poison(0xFF);
      ones = std::make_unique<Network>(cfg);
    }
    for (Cycle c = 0; c < kCycles; ++c) {
      {
        const HeapFill poison(0x00);
        zeros->step();
      }
      {
        const HeapFill poison(0xFF);
        ones->step();
      }
      ASSERT_EQ(zeros->state_digest(), ones->state_digest())
          << name << ": the heap's fill byte reached the state at cycle "
          << zeros->now();
    }
    EXPECT_EQ(jsonl_line(cfg, 0x00), jsonl_line(cfg, 0xFF)) << name;
  }
#endif
}

}  // namespace
}  // namespace ftnoc

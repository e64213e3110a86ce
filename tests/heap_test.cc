// Heap use of the simulated datapath, measured with a counting global
// operator new/delete (this executable's own, which is why these tests live
// in a binary of their own).
//
// Two properties:
//  - Live heap bytes stay flat as simulated time grows, in every protection
//    mode: the host/NIC receive path recycles each descriptor's mapping
//    vector instead of leaving it behind.
//  - The per-packet path stays off the heap on the benchmark's iperf
//    configuration: at most 0.1 allocations per received packet with the
//    IOMMU off (only the host/NIC/driver path runs) and under F&S, and at
//    most 0.25 under strict, where every page also takes a page walk (the
//    IOMMU's pending-walk table is allocated once, not per walk).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace {

// Each block carries its size in a header, so operator delete can subtract
// it from the live total. 16 bytes keeps the caller's block aligned for any
// fundamental type.
constexpr std::size_t kHeader = 16;
std::uint64_t g_allocations = 0;
std::int64_t g_live_bytes = 0;

void* CountedAlloc(std::size_t n) {
  void* block = std::malloc(n + kHeader);
  if (block == nullptr) {
    throw std::bad_alloc();
  }
  *static_cast<std::size_t*>(block) = n;
  ++g_allocations;
  g_live_bytes += static_cast<std::int64_t>(n);
  return static_cast<char*>(block) + kHeader;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t*>(block));
  std::free(block);
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace fsio {
namespace {

constexpr TimeNs kWindowNs = 5 * kNsPerMs;

// What may still grow between windows 2 and 8 (30 ms of 100 Gbps traffic):
// the IO page-table pages F&S-style modes keep by design as their IOVA
// footprint spreads (about 2.2 KiB per simulated ms on the F&S Redis
// workload, ~70 KiB here), rehash steps of the driver's chunk and flow
// maps, and the high-water growth of the event queue and FIFO rings. The
// leak this guards against added ~90 KiB per simulated ms (~2.7 MiB here).
constexpr std::int64_t kLiveGrowthToleranceBytes = 256 * 1024;

class HeapBoundTest : public ::testing::TestWithParam<ProtectionMode> {};

TEST_P(HeapBoundTest, LiveBytesStayFlatAfterWarmup) {
  TestbedConfig config;
  config.mode = GetParam();
  Testbed tb(config);
  tb.AddBulkFlows(0, 1, config.cores);
  tb.RunUntil(2 * kWindowNs);
  const std::int64_t after_window2 = g_live_bytes;
  tb.RunUntil(8 * kWindowNs);
  const std::int64_t growth = g_live_bytes - after_window2;
  EXPECT_GT(tb.receiver_host().stats().Value("nic.rx_packets"), 10'000u);
  EXPECT_LE(growth, kLiveGrowthToleranceBytes)
      << "live heap grew by " << growth << " bytes between windows 2 and 8";
}

INSTANTIATE_TEST_SUITE_P(AllModes, HeapBoundTest, ::testing::ValuesIn(kAllModes),
                         test::ModeParamName);

// The benchmark's iperf workloads: 40 bulk flows over 5 cores, 4 KB MTU.
// Allocations are counted over a measured window after warm-up and divided
// by the packets both NICs received in it (data and ACKs).
void ExpectIperfAllocationsPerReceivedPacketAtMost(ProtectionMode mode, double bound) {
  TestbedConfig config;
  config.mode = mode;
  config.cores = 5;
  config.mtu_bytes = 4096;
  config.ring_size_pkts = 256;
  Testbed tb(config);
  tb.AddBulkFlows(0, 1, 40);
  tb.RunUntil(4 * kWindowNs);
  const auto rx_packets = [&tb] {
    return tb.sender_host().stats().Value("nic.rx_packets") +
           tb.receiver_host().stats().Value("nic.rx_packets");
  };
  const std::uint64_t packets0 = rx_packets();
  const std::uint64_t allocations0 = g_allocations;
  tb.RunUntil(8 * kWindowNs);
  const double allocations = static_cast<double>(g_allocations - allocations0);
  const double packets = static_cast<double>(rx_packets() - packets0);
  ASSERT_GT(packets, 10'000.0);
  EXPECT_LE(allocations / packets, bound)
      << allocations << " allocations for " << packets << " received packets";
}

TEST(HeapPerPacketTest, IperfOffAllocatesAtMostOneTenthPerReceivedPacket) {
  ExpectIperfAllocationsPerReceivedPacketAtMost(ProtectionMode::kOff, 0.1);
}

TEST(HeapPerPacketTest, IperfStrictAllocatesAtMostAQuarterPerReceivedPacket) {
  ExpectIperfAllocationsPerReceivedPacketAtMost(ProtectionMode::kStrict, 0.25);
}

TEST(HeapPerPacketTest, IperfFastSafeAllocatesAtMostOneTenthPerReceivedPacket) {
  ExpectIperfAllocationsPerReceivedPacketAtMost(ProtectionMode::kFastSafe, 0.1);
}

}  // namespace
}  // namespace fsio

// Cross-cutting property tests, parameterized over every protection mode:
// invariants that must hold regardless of policy (conservation, absence of
// faults, IOVA/page-table balance, determinism), and the safety taxonomy.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/testbed.h"
#include "src/driver/dma_api.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/rng.h"
#include "tests/test_util.h"

namespace fsio {
namespace {

class ModeProperty : public ::testing::TestWithParam<ProtectionMode> {};

// Under normal (bug-free) traffic, the IOMMU must never fault: the driver
// only hands the NIC currently-mapped IOVAs, in every mode.
TEST_P(ModeProperty, NoFaultsUnderTraffic) {
  TestbedConfig config;
  config.mode = GetParam();
  config.cores = 3;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 3);
  const WindowResult r = testbed.RunWindow(5 * kNsPerMs, 10 * kNsPerMs);
  auto value = [&r](const char* name) {
    auto it = r.raw_rx_host.find(name);
    return it == r.raw_rx_host.end() ? 0ull : it->second;  // kOff has no IOMMU
  };
  EXPECT_EQ(value("iommu.faults"), 0u) << ProtectionModeName(GetParam());
  EXPECT_EQ(value("pcie.faults"), 0u) << ProtectionModeName(GetParam());
}

// Strictly-safe modes must never consume stale cached state; the taxonomy
// in protection.h matches the oracle's observations.
TEST_P(ModeProperty, SafetyTaxonomyHolds) {
  TestbedConfig config;
  config.mode = GetParam();
  config.cores = 3;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 3);
  const WindowResult r = testbed.RunWindow(5 * kNsPerMs, 10 * kNsPerMs);
  if (IsStrictlySafe(GetParam())) {
    EXPECT_EQ(r.safety_violations, 0u) << ProtectionModeName(GetParam());
  }
  // Non-strict modes may or may not show violations in normal traffic (the
  // device does not spontaneously misbehave); their weakness is the standing
  // access window, demonstrated by the driver/hugepage tests.
}

// The measurement identity reads = iotlb + m1 + m2 + m3 holds per mode.
TEST_P(ModeProperty, MissAccountingIdentity) {
  TestbedConfig config;
  config.mode = GetParam();
  config.cores = 3;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 3);
  const WindowResult r = testbed.RunWindow(5 * kNsPerMs, 10 * kNsPerMs);
  const double sum = r.iotlb_miss_per_page + r.l1_miss_per_page + r.l2_miss_per_page +
                     r.l3_miss_per_page;
  EXPECT_NEAR(r.mem_reads_per_page, sum, 0.02) << ProtectionModeName(GetParam());
}

// Re-running the identical configuration gives bit-identical results: the
// simulator is deterministic.
TEST_P(ModeProperty, Deterministic) {
  auto run = [&] {
    TestbedConfig config;
    config.mode = GetParam();
    config.cores = 3;
    Testbed testbed(config);
    testbed.AddBulkFlows(0, 1, 3);
    return testbed.RunWindow(5 * kNsPerMs, 10 * kNsPerMs);
  };
  const WindowResult a = run();
  const WindowResult b = run();
  EXPECT_EQ(a.raw_rx_host, b.raw_rx_host) << ProtectionModeName(GetParam());
}

// All application bytes eventually arrive exactly once (transport-level
// conservation), whatever the protection datapath does underneath.
TEST_P(ModeProperty, FiniteTransferCompletes) {
  TestbedConfig config;
  config.mode = GetParam();
  config.cores = 2;
  Testbed testbed(config);
  DctcpSender* sender = testbed.AddFlow(0, 1, 0, 0);
  sender->EnqueueAppBytes(8 << 20);
  testbed.RunUntil(100 * kNsPerMs);
  EXPECT_EQ(sender->bytes_acked(), 8u << 20) << ProtectionModeName(GetParam());
  EXPECT_EQ(testbed.receiver_host().app_bytes_delivered(), 8u << 20)
      << ProtectionModeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeProperty, ::testing::ValuesIn(kAllModes),
                         test::ModeParamName);

// Driver-level property: random map/unmap traffic leaves no leaked page
// table entries or IOVAs, for every mode that tears mappings down.
class DriverBalanceProperty : public ::testing::TestWithParam<ProtectionMode> {};

TEST_P(DriverBalanceProperty, NoLeaksAfterRandomTraffic) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  IoPageTable page_table;
  Iommu iommu(IommuConfig{}, &memory, &page_table, &stats);
  IovaAllocator iova(IovaAllocatorConfig{}, &stats);
  DmaApiConfig config;
  config.mode = GetParam();
  DmaApi dma(config, &iova, &page_table, &iommu, &stats);
  FrameAllocator frames;
  Rng rng(42);

  std::vector<std::vector<DmaMapping>> live;
  TimeNs t = 0;
  for (int step = 0; step < 2000; ++step) {
    t += 1000;
    if (live.empty() || rng.NextBool(0.55)) {
      const std::uint32_t n = rng.NextBool(0.5) ? 64 : 1 + rng.NextBelow(8);
      std::vector<PhysAddr> buf;
      for (std::uint32_t i = 0; i < n; ++i) {
        buf.push_back(frames.AllocFrame());
      }
      auto mapped = n == 1 ? dma.MapPage(rng.NextBelow(4), buf[0])
                           : dma.MapPages(rng.NextBelow(4), buf);
      live.push_back(std::move(mapped.mappings));
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      dma.UnmapDescriptor(rng.NextBelow(4), live[idx], t);
      live[idx] = std::move(live.back());
      live.pop_back();
    }
    // Device exercises a random live mapping; must never fault.
    if (!live.empty()) {
      const auto& mappings = live[rng.NextBelow(live.size())];
      const auto r = iommu.Translate(mappings[rng.NextBelow(mappings.size())].iova, t);
      ASSERT_FALSE(r.fault) << "step " << step;
    }
  }
  // Drain everything; mapped pages must return to zero.
  for (const auto& mappings : live) {
    t += 1000;
    dma.UnmapDescriptor(0, mappings, t);
  }
  EXPECT_EQ(page_table.mapped_pages(), 0u) << ProtectionModeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(TearingModes, DriverBalanceProperty,
                         ::testing::ValuesIn(test::kStrictlySafeTearingModes),
                         test::ModeParamName);

}  // namespace
}  // namespace fsio

// Tests for the DMA-API driver layer: per-mode map/unmap datapaths,
// contiguous chunk packing, batched invalidations, deferred flushing, chunk
// lifecycle, the strict-safety guarantee of every safe mode, and the
// ProtectionDomain stack's crash rebuild.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/driver/dma_api.h"
#include "src/driver/protection.h"
#include "src/driver/protection_domain.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/stats/counters.h"
#include "tests/test_util.h"

namespace fsio {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  void Build(ProtectionMode mode, DmaApiConfig dma_config = DmaApiConfig{}) {
    dma_config.mode = mode;
    stats_ = std::make_unique<StatsRegistry>();
    MemoryConfig mem_config;
    memory_ = std::make_unique<MemorySystem>(mem_config, stats_.get());
    page_table_ = std::make_unique<IoPageTable>();
    iommu_ = std::make_unique<Iommu>(iommu_config_, memory_.get(), page_table_.get(),
                                     stats_.get());
    IovaAllocatorConfig iova_config;
    iova_config.num_cores = 4;
    iova_ = std::make_unique<IovaAllocator>(iova_config, stats_.get());
    dma_ = std::make_unique<DmaApi>(dma_config, iova_.get(), page_table_.get(), iommu_.get(),
                                    stats_.get());
  }

  std::vector<PhysAddr> Frames(int n, PhysAddr base = 0x10000000) {
    std::vector<PhysAddr> frames;
    for (int i = 0; i < n; ++i) {
      frames.push_back(base + static_cast<PhysAddr>(i) * kPageSize);
    }
    return frames;
  }

  IommuConfig iommu_config_;
  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<IoPageTable> page_table_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<IovaAllocator> iova_;
  std::unique_ptr<DmaApi> dma_;
};

TEST_F(DriverTest, OffModeUsesIdentityMappings) {
  Build(ProtectionMode::kOff);
  const auto result = dma_->MapPages(0, Frames(4));
  ASSERT_EQ(result.mappings.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.mappings[i].iova, result.mappings[i].phys);
  }
  EXPECT_EQ(result.cpu_ns, 0u);
  EXPECT_EQ(page_table_->mapped_pages(), 0u);
  dma_->UnmapDescriptor(0, result.mappings, 1000);
}

TEST_F(DriverTest, StrictModeMapsEachPageSeparately) {
  Build(ProtectionMode::kStrict);
  const auto result = dma_->MapPages(0, Frames(64));
  ASSERT_EQ(result.mappings.size(), 64u);
  EXPECT_EQ(page_table_->mapped_pages(), 64u);
  for (const auto& m : result.mappings) {
    EXPECT_EQ(m.chunk_id, 0u);
    EXPECT_TRUE(page_table_->IsMapped(m.iova));
  }
  dma_->UnmapDescriptor(0, result.mappings, 1000);
}

TEST_F(DriverTest, FastSafeMapsDescriptorIntoOneContiguousChunk) {
  Build(ProtectionMode::kFastSafe);
  const auto result = dma_->MapPages(0, Frames(64));
  ASSERT_EQ(result.mappings.size(), 64u);
  const Iova base = result.mappings[0].iova;
  EXPECT_EQ(base % (64 * kPageSize), 0u);  // naturally aligned chunk
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(result.mappings[i].iova, base + i * kPageSize);
    EXPECT_EQ(result.mappings[i].chunk_id, result.mappings[0].chunk_id);
  }
  // At most two PTcache-L3 tags per descriptor (one if aligned inside 2 MB).
  const std::uint64_t first_tag = LevelTag(result.mappings.front().iova, 3);
  const std::uint64_t last_tag = LevelTag(result.mappings.back().iova, 3);
  EXPECT_LE(last_tag - first_tag, 1u);
  dma_->UnmapDescriptor(0, result.mappings, 1000);
}

TEST_F(DriverTest, FastSafeTxPacksPagesAcrossCalls) {
  Build(ProtectionMode::kFastSafe);
  const auto a = dma_->MapPage(1, 0x1000000);
  const auto b = dma_->MapPage(1, 0x2000000);
  ASSERT_EQ(a.mappings.size(), 1u);
  ASSERT_EQ(b.mappings.size(), 1u);
  EXPECT_EQ(b.mappings[0].iova, a.mappings[0].iova + kPageSize);
  EXPECT_EQ(a.mappings[0].chunk_id, b.mappings[0].chunk_id);
  dma_->UnmapDescriptor(1, {a.mappings[0], b.mappings[0]}, 1000);
}

TEST_F(DriverTest, FastSafeTxRollsToNewChunkWhenFull) {
  DmaApiConfig config;
  config.pages_per_chunk = 4;
  Build(ProtectionMode::kFastSafe, config);
  std::vector<DmaMapping> maps;
  for (int i = 0; i < 5; ++i) {
    maps.push_back(dma_->MapPage(0, 0x1000000 + i * kPageSize).mappings[0]);
  }
  EXPECT_EQ(maps[3].chunk_id, maps[0].chunk_id);
  EXPECT_NE(maps[4].chunk_id, maps[0].chunk_id);
  dma_->UnmapDescriptor(0, maps, 1000);
}

TEST_F(DriverTest, StrictUnmapIssuesOneInvalidationPerPage) {
  Build(ProtectionMode::kStrict);
  const auto result = dma_->MapPages(0, Frames(64));
  const auto unmap = dma_->UnmapDescriptor(0, result.mappings, 1000);
  EXPECT_EQ(unmap.invalidation_requests, 64u);
  EXPECT_EQ(page_table_->mapped_pages(), 0u);
}

TEST_F(DriverTest, FastSafeUnmapBatchesIntoOneInvalidation) {
  Build(ProtectionMode::kFastSafe);
  const auto result = dma_->MapPages(0, Frames(64));
  const auto unmap = dma_->UnmapDescriptor(0, result.mappings, 1000);
  EXPECT_EQ(unmap.invalidation_requests, 1u);
  EXPECT_EQ(page_table_->mapped_pages(), 0u);
}

TEST_F(DriverTest, BatchedInvalidationCostsLessCpu) {
  Build(ProtectionMode::kStrict);
  auto strict_maps = dma_->MapPages(0, Frames(64));
  const auto strict_unmap = dma_->UnmapDescriptor(0, strict_maps.mappings, 1000);

  Build(ProtectionMode::kFastSafe);
  auto fs_maps = dma_->MapPages(0, Frames(64));
  const auto fs_unmap = dma_->UnmapDescriptor(0, fs_maps.mappings, 1000);
  EXPECT_LT(fs_unmap.cpu_ns * 3, strict_unmap.cpu_ns);
}

TEST_F(DriverTest, StrictSafetyNoAccessAfterUnmapReturns) {
  // The strict guarantee, for every safe mode: after UnmapDescriptor
  // returns, translating any of its IOVAs must fault (never stale-hit).
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    Build(mode);
    const auto result = dma_->MapPages(0, Frames(64));
    // Warm the IOMMU with device accesses.
    for (const auto& m : result.mappings) {
      iommu_->Translate(m.iova, 0);
    }
    dma_->UnmapDescriptor(0, result.mappings, 100000);
    for (const auto& m : result.mappings) {
      const TranslationResult t = iommu_->Translate(m.iova, 200000);
      EXPECT_TRUE(t.fault) << ProtectionModeName(mode);
      EXPECT_FALSE(t.stale_use) << ProtectionModeName(mode);
    }
    EXPECT_EQ(stats_->Value("iommu.stale_iotlb_use"), 0u) << ProtectionModeName(mode);
    EXPECT_EQ(stats_->Value("iommu.stale_ptcache_use"), 0u) << ProtectionModeName(mode);
  }
}

TEST_F(DriverTest, DeferredModeLeavesStaleWindowThenFlushes) {
  DmaApiConfig config;
  config.deferred_flush_threshold = 128;
  Build(ProtectionMode::kDeferred, config);
  const auto result = dma_->MapPages(0, Frames(64));
  for (const auto& m : result.mappings) {
    iommu_->Translate(m.iova, 0);
  }
  dma_->UnmapDescriptor(0, result.mappings, 1000);
  EXPECT_EQ(dma_->deferred_pending(), 64u);
  // The device can still use the stale IOTLB entries: the deferred hazard.
  const TranslationResult t = iommu_->Translate(result.mappings[0].iova, 2000);
  EXPECT_TRUE(t.stale_use);
  EXPECT_GT(stats_->Value("iommu.stale_iotlb_use"), 0u);

  // Crossing the threshold flushes everything and frees the IOVAs.
  const auto result2 = dma_->MapPages(0, Frames(64, 0x40000000));
  for (const auto& m : result2.mappings) {
    iommu_->Translate(m.iova, 3000);
  }
  dma_->UnmapDescriptor(0, result2.mappings, 4000);
  EXPECT_EQ(dma_->deferred_pending(), 0u);
  EXPECT_EQ(stats_->Value("dma.deferred_flushes"), 1u);
  const TranslationResult after = iommu_->Translate(result2.mappings[0].iova, 5000);
  EXPECT_TRUE(after.fault);
}

TEST_F(DriverTest, DeferredFlushWaitsForTheIommu) {
  // Default IOMMU timing: the flush is issued after its submit cost, so the
  // drain spins for the hardware's acknowledgement like every other request.
  DmaApiConfig config;
  config.deferred_flush_threshold = 64;
  Build(ProtectionMode::kDeferred, config);
  const auto result = dma_->MapPages(0, Frames(64));
  const DmaApi::UnmapResultInfo u = dma_->UnmapDescriptor(0, result.mappings, 1000);
  EXPECT_EQ(stats_->Value("dma.deferred_flushes"), 1u);
  EXPECT_GT(stats_->Value("dma.spin_ns"), 0u);
  EXPECT_EQ(u.hw_done, 1000 + u.cpu_ns) << "the CPU returns when the flush completes";
}

TEST_F(DriverTest, FastSafePreservesPtcachesAcrossDescriptorCycles) {
  Build(ProtectionMode::kFastSafe);
  // First descriptor cycle warms PTcache-L3.
  auto first = dma_->MapPages(0, Frames(64));
  for (const auto& m : first.mappings) {
    iommu_->Translate(m.iova, 0);
  }
  dma_->UnmapDescriptor(0, first.mappings, 100000);
  // Second cycle reuses the same chunk IOVA (LIFO rcache).
  auto second = dma_->MapPages(0, Frames(64, 0x50000000));
  EXPECT_EQ(second.mappings[0].iova, first.mappings[0].iova);
  const auto before = stats_->Value("iommu.ptcache_l3_miss");
  for (const auto& m : second.mappings) {
    iommu_->Translate(m.iova, 200000);
  }
  EXPECT_EQ(stats_->Value("iommu.ptcache_l3_miss"), before);  // all L3 hits
}

TEST_F(DriverTest, StrictModeThrashesPtcachesAcrossDescriptorCycles) {
  Build(ProtectionMode::kStrict);
  auto first = dma_->MapPages(0, Frames(64));
  for (const auto& m : first.mappings) {
    iommu_->Translate(m.iova, 0);
  }
  dma_->UnmapDescriptor(0, first.mappings, 100000);
  auto second = dma_->MapPages(0, Frames(64, 0x50000000));
  const auto before = stats_->Value("iommu.ptcache_l3_miss");
  for (const auto& m : second.mappings) {
    iommu_->Translate(m.iova, 200000);
  }
  // Full invalidations killed the shared PTcache entries.
  EXPECT_GT(stats_->Value("iommu.ptcache_l3_miss"), before);
}

TEST_F(DriverTest, ChunkIovaFreedOnlyWhenFullyUnmapped) {
  DmaApiConfig config;
  config.pages_per_chunk = 4;
  Build(ProtectionMode::kFastSafe, config);
  const std::uint64_t live_before = iova_->live_allocations();
  auto result = dma_->MapPages(0, Frames(4));
  EXPECT_EQ(iova_->live_allocations(), live_before + 1);
  // Unmap half the descriptor: chunk must stay allocated.
  std::vector<DmaMapping> half(result.mappings.begin(), result.mappings.begin() + 2);
  dma_->UnmapDescriptor(0, half, 1000);
  EXPECT_EQ(iova_->live_allocations(), live_before + 1);
  std::vector<DmaMapping> rest(result.mappings.begin() + 2, result.mappings.end());
  dma_->UnmapDescriptor(0, rest, 2000);
  EXPECT_EQ(iova_->live_allocations(), live_before);
}

TEST_F(DriverTest, InjectedReclaimBugIsCaughtBySafetyOracle) {
  // Force reclamation: one chunk == one PT-L4 page (2 MB = 512 pages), so a
  // full-descriptor unmap covers the whole span and reclaims it.
  DmaApiConfig config;
  config.pages_per_chunk = 512;
  config.inject_skip_reclaim_invalidation = true;
  Build(ProtectionMode::kFastSafe, config);
  auto result = dma_->MapPages(0, Frames(512));
  iommu_->Translate(result.mappings[0].iova, 0);
  dma_->UnmapDescriptor(0, result.mappings, 100000);
  // Remap the same chunk (rcache LIFO) — new PT-L4 page, stale PTcache-L3.
  auto again = dma_->MapPages(0, Frames(512, 0x80000000));
  ASSERT_EQ(again.mappings[0].iova, result.mappings[0].iova);
  iommu_->Translate(again.mappings[0].iova, 200000);
  EXPECT_GT(stats_->Value("iommu.stale_ptcache_use"), 0u);
}

TEST_F(DriverTest, ReclaimInvalidationKeepsFastSafeSafe) {
  DmaApiConfig config;
  config.pages_per_chunk = 512;
  Build(ProtectionMode::kFastSafe, config);
  auto result = dma_->MapPages(0, Frames(512));
  iommu_->Translate(result.mappings[0].iova, 0);
  dma_->UnmapDescriptor(0, result.mappings, 100000);
  EXPECT_GT(stats_->Value("dma.reclaim_invalidations"), 0u);
  auto again = dma_->MapPages(0, Frames(512, 0x80000000));
  iommu_->Translate(again.mappings[0].iova, 200000);
  EXPECT_EQ(stats_->Value("iommu.stale_ptcache_use"), 0u);
}

TEST_F(DriverTest, L3TrackerRecordsAllocationOrder) {
  Build(ProtectionMode::kFastSafe);
  ReuseDistanceTracker tracker;
  dma_->SetL3Tracker(&tracker);
  auto result = dma_->MapPages(0, Frames(64));
  EXPECT_EQ(tracker.accesses(), 64u);
  // Contiguous chunk: at most 2 distinct L3 tags → distances 0.
  for (std::uint64_t d : tracker.distances()) {
    EXPECT_LE(d, 1u);
  }
  dma_->UnmapDescriptor(0, result.mappings, 1000);
}

TEST_F(DriverTest, PersistentMappingsSurvive) {
  Build(ProtectionMode::kStrict);
  const Iova ring = dma_->MapPersistent(0, Frames(8));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(page_table_->IsMapped(ring + static_cast<Iova>(i) * kPageSize));
  }
}

// Every map and unmap entry point charges what it returns: dma.cpu_ns is the
// sum of the returned cpu_ns, dma.map_cpu_ns the maps' share of it, and an
// invalidating unmap's CPU time is its PTE work, its submits and the
// dma.spin_ns waits. Each datapath map counts one dma.map_ops and records one
// PTcache-L3 tag; descriptor-ring maps do neither.
TEST_F(DriverTest, CountersMatchReturnedCostsInEveryMode) {
  constexpr int kRxPages = 64;
  constexpr int kTxPages = 16;
  for (ProtectionMode mode : kAllModes) {
    SCOPED_TRACE(ProtectionModeName(mode));
    const UnmapSemantics semantics = UnmapSemanticsFor(mode);
    const bool invalidates = semantics == UnmapSemantics::kSyncInvalidate ||
                             semantics == UnmapSemantics::kDeferredInvalidate;
    DmaApiConfig config;
    config.deferred_flush_threshold = kRxPages;  // the Rx unmap flushes
    iommu_config_.invalidation_hw_ns = 1'000;    // every invalidation makes the CPU wait
    Build(mode, config);
    ReuseDistanceTracker tracker;
    dma_->SetL3Tracker(&tracker);
    TimeNs map_cpu = 0;
    TimeNs unmap_cpu = 0;

    // One Rx descriptor: 64 4 KB maps, one capability grant, or one 2 MB
    // pooled hugepage map.
    DmaApi::MapResult rx;
    std::uint64_t rx_maps = kRxPages;
    if (semantics == UnmapSemantics::kReleaseOnly) {
      rx = dma_->AcquirePersistentDescriptor(0, [] { return PhysAddr{0x40000000}; });
      rx_maps = 1;
    } else {
      rx = dma_->MapPages(0, Frames(kRxPages));
    }
    if (semantics == UnmapSemantics::kRevokeCapability) {
      rx_maps = 1;
    }
    if (semantics == UnmapSemantics::kNoProtection) {
      rx_maps = 0;
    }
    map_cpu += rx.cpu_ns;
    ASSERT_FALSE(rx.mappings.empty());
    EXPECT_EQ(stats_->Value("dma.map_ops"), rx_maps);
    EXPECT_EQ(tracker.accesses(), UsesIommu(mode) ? rx_maps : 0u);

    // Tx pages, one map call each.
    std::vector<DmaMapping> tx;
    for (PhysAddr frame : Frames(kTxPages, 0x20000000)) {
      const DmaApi::PageMapResult page = dma_->MapOnePage(1, frame);
      ASSERT_TRUE(page.ok());
      map_cpu += page.cpu_ns;
      tx.push_back(page.mapping);
    }
    const std::uint64_t tx_maps = semantics == UnmapSemantics::kNoProtection ? 0 : kTxPages;
    EXPECT_EQ(stats_->Value("dma.map_ops"), rx_maps + tx_maps);
    EXPECT_EQ(tracker.accesses(), UsesIommu(mode) ? rx_maps + tx_maps : 0u);

    // A descriptor ring: mapped, but neither counted, tracked nor charged.
    dma_->MapPersistent(2, Frames(8, 0x30000000));
    EXPECT_EQ(stats_->Value("dma.map_ops"), rx_maps + tx_maps);
    EXPECT_EQ(tracker.accesses(), UsesIommu(mode) ? rx_maps + tx_maps : 0u);
    EXPECT_EQ(stats_->Value("dma.map_cpu_ns"), map_cpu);
    EXPECT_EQ(stats_->Value("dma.cpu_ns"), map_cpu);

    if (semantics == UnmapSemantics::kReleaseOnly) {
      dma_->ReleasePersistentDescriptor(0, rx.mappings);
    } else {
      unmap_cpu += dma_->UnmapDescriptor(0, rx.mappings, 1'000'000).cpu_ns;
    }
    unmap_cpu += dma_->UnmapDescriptor(1, tx, 2'000'000).cpu_ns;
    EXPECT_EQ(stats_->Value("dma.cpu_ns"), map_cpu + unmap_cpu);
    EXPECT_EQ(stats_->Value("dma.map_cpu_ns"), map_cpu);
    if (invalidates) {
      EXPECT_GT(stats_->Value("dma.spin_ns"), 0u);
      EXPECT_EQ(unmap_cpu, config.unmap_page_cpu_ns * (kRxPages + kTxPages) +
                               config.inv_submit_cpu_ns * stats_->Value("dma.inv_requests") +
                               stats_->Value("dma.spin_ns"));
    } else {
      EXPECT_EQ(stats_->Value("dma.spin_ns"), 0u);
    }
  }
}

TEST(ProtectionDomainTest, RebuildFlagsStalePtcachePointerIntoOldTable) {
  // The rebuilt page table continues the old table's page ids, so a PTcache
  // pointer that survived the rebuild names a page no live table holds: the
  // translation that consumes it is stale, into a reclaimed page.
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  Iommu iommu(IommuConfig{}, &memory, /*page_table=*/nullptr, &stats);
  ProtectionDomainConfig config;
  config.dma.mode = ProtectionMode::kFastSafe;
  ProtectionDomain domain(config, &iommu, ProtectionDomain::Binding::kHostDomain, &stats);
  const DmaApi::PageMapResult before = domain.dma().MapOnePage(0, 0x1000'0000);
  ASSERT_TRUE(before.ok());
  const Iova iova = before.mapping.iova;
  EXPECT_FALSE(iommu.Translate(iova, 1'000).stale_use);
  // Leaf-only: the IOTLB entry goes, the PTcache pointers stay.
  iommu.InvalidateRange(iova, kPageSize, /*leaf_only=*/true, 2'000);

  domain.Rebuild();
  const DmaApi::PageMapResult after = domain.dma().MapOnePage(0, 0x2000'0000);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.mapping.iova, iova);
  const TranslationResult t = iommu.Translate(iova, 10'000);
  EXPECT_FALSE(t.l3_missed);  // served through the surviving PTcache-L3 entry
  EXPECT_TRUE(t.stale_ptcache);
  EXPECT_TRUE(t.stale_ptcache_reclaimed);
}

TEST(ProtectionDomainTest, RebuildKeepsOneRegistrationOfEachCheck) {
  // kCapability registers the most checks: three DMA checks, the page
  // table's and the oracle's. Rebuilds must neither add nor drop any, and
  // the DMA checks carry the domain's prefix and follow the live stack.
  StatsRegistry stats;
  SafetyOracle oracle(&stats);
  InvariantRegistry invariants(&stats);
  ProtectionDomainConfig config;
  config.dma.mode = ProtectionMode::kCapability;
  ProtectionDomain domain(config, /*iommu=*/nullptr, ProtectionDomain::Binding::kHostDomain,
                          &stats);
  domain.SetOracle(&oracle);
  domain.RegisterInvariants(&invariants, "domain 1: ");
  TimeNs now = 1'000;
  for (int rebuilds = 0; rebuilds < 3; ++rebuilds, now += 1'000) {
    const std::uint64_t before = invariants.checks_run();
    EXPECT_EQ(invariants.CheckAll(now), 0u);
    EXPECT_EQ(invariants.checks_run() - before, 5u) << "after " << rebuilds << " rebuilds";
    domain.Rebuild();
  }

  // The rebuilt DMA API's capability check runs, under the prefix, and the
  // same DMA API reports hard failures to the registry.
  const DmaApi::PageMapResult m = domain.dma().MapOnePage(0, 0x1000'0000);
  ASSERT_TRUE(m.ok());
  const std::vector<DmaMapping> once = {m.mapping};
  domain.dma().UnmapDescriptor(0, once, now);
  domain.dma().UnmapDescriptor(0, once, now);
  ASSERT_EQ(invariants.failure_count(), 1u);
  EXPECT_EQ(invariants.failures()[0].name, "dma.double_unmap");
  domain.dma().DeviceCheckCapability(m.mapping.iova, 1, now, /*enforce=*/false);
  EXPECT_EQ(invariants.CheckAll(now), 1u);
  ASSERT_EQ(invariants.failure_count(), 2u);
  EXPECT_EQ(invariants.failures()[1].name, "domain 1: capability.dma_after_revoke");
}

}  // namespace
}  // namespace fsio

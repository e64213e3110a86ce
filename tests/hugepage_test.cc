// Tests for 2 MB hugepage support across the stack: page table leaf
// entries, IOMMU huge-IOTLB translation, the F&S+hugepages driver path, the
// persistent-hugepage related-work mode, and the safety contrast between
// the two.
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

namespace fsio {
namespace {

constexpr Iova kHuge = 2ULL << 20;

TEST(HugePageTableTest, MapHugeRequiresAlignment) {
  IoPageTable pt;
  EXPECT_FALSE(pt.MapHuge(kPageSize, 0));          // unaligned IOVA
  EXPECT_FALSE(pt.MapHuge(kHuge, kPageSize));      // unaligned phys
  EXPECT_TRUE(pt.MapHuge(kHuge, 4 * kHuge));
}

TEST(HugePageTableTest, HugeWalkCoversWholeSpan) {
  IoPageTable pt;
  ASSERT_TRUE(pt.MapHuge(kHuge, 4 * kHuge));
  for (Iova off : {Iova{0}, Iova{kPageSize}, kHuge - 1}) {
    const WalkResult w = pt.Walk(kHuge + off);
    ASSERT_TRUE(w.present) << off;
    EXPECT_TRUE(w.huge);
    EXPECT_EQ(w.phys, 4 * kHuge + off);
  }
  EXPECT_EQ(pt.mapped_pages(), 512u);
}

TEST(HugePageTableTest, HugeUsesNoPtL4Page) {
  IoPageTable pt;
  ASSERT_TRUE(pt.MapHuge(kHuge, 4 * kHuge));
  // root + PT-L2 + PT-L3 only.
  EXPECT_EQ(pt.live_table_pages(), 3u);
  EXPECT_EQ(pt.Walk(kHuge).path_page_id[3], 0u);
}

TEST(HugePageTableTest, ConflictsWithExistingMappings) {
  IoPageTable pt;
  ASSERT_TRUE(pt.Map(kHuge + 5 * kPageSize, 0x1000));
  EXPECT_FALSE(pt.MapHuge(kHuge, 4 * kHuge));  // PT-L4 subtree in the way
  ASSERT_TRUE(pt.MapHuge(2 * kHuge, 4 * kHuge));
  EXPECT_FALSE(pt.Map(2 * kHuge + kPageSize, 0x2000));  // covered by huge
  EXPECT_FALSE(pt.MapHuge(2 * kHuge, 6 * kHuge));       // double huge map
}

TEST(HugePageTableTest, FullCoverUnmapRemovesHugeEntry) {
  IoPageTable pt;
  ASSERT_TRUE(pt.MapHuge(kHuge, 4 * kHuge));
  const UnmapResult r = pt.Unmap(kHuge, kHuge);
  EXPECT_EQ(r.unmapped_pages, 512u);
  EXPECT_FALSE(pt.IsMapped(kHuge));
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(HugePageTableTest, PartialUnmapLeavesHugeEntryIntact) {
  IoPageTable pt;
  ASSERT_TRUE(pt.MapHuge(kHuge, 4 * kHuge));
  const UnmapResult r = pt.Unmap(kHuge, 256 * 1024);  // quarter of the span
  EXPECT_EQ(r.unmapped_pages, 0u);
  EXPECT_TRUE(pt.IsMapped(kHuge));
}

class HugeIommuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats = std::make_unique<StatsRegistry>();
    memory = std::make_unique<MemorySystem>(MemoryConfig{}, stats.get());
    pt = std::make_unique<IoPageTable>();
    iommu = std::make_unique<Iommu>(IommuConfig{}, memory.get(), pt.get(), stats.get());
  }
  std::unique_ptr<StatsRegistry> stats;
  std::unique_ptr<MemorySystem> memory;
  std::unique_ptr<IoPageTable> pt;
  std::unique_ptr<Iommu> iommu;
};

TEST_F(HugeIommuTest, OneIotlbEntryCoversTwoMegabytes) {
  ASSERT_TRUE(pt->MapHuge(kHuge, 4 * kHuge));
  const TranslationResult first = iommu->Translate(kHuge, 0);
  EXPECT_FALSE(first.iotlb_hit);
  EXPECT_EQ(first.phys, 4 * kHuge);
  // Every other page in the 2 MB span hits the same entry.
  for (Iova off = kPageSize; off < kHuge; off += 64 * kPageSize) {
    const TranslationResult r = iommu->Translate(kHuge + off, 1000);
    EXPECT_TRUE(r.iotlb_hit) << off;
    EXPECT_EQ(r.phys, 4 * kHuge + off);
  }
  EXPECT_EQ(stats->Value("iommu.iotlb_miss"), 1u);
}

TEST_F(HugeIommuTest, HugeWalkSkipsPtcacheL3) {
  ASSERT_TRUE(pt->MapHuge(kHuge, 4 * kHuge));
  const TranslationResult cold = iommu->Translate(kHuge, 0);
  // Cold: leaf (PT-L3 entry) + PT-L2 + PT-L1 reads = 3.
  EXPECT_EQ(cold.mem_reads, 3);
  EXPECT_FALSE(cold.l3_missed);  // PTcache-L3 is not on a huge walk's path

  // Warm PTcache-L2: a second huge mapping in the same 1 GB region walks
  // with a single read.
  ASSERT_TRUE(pt->MapHuge(3 * kHuge, 8 * kHuge));
  const TranslationResult warm = iommu->Translate(3 * kHuge, 10000);
  EXPECT_EQ(warm.mem_reads, 1);
}

TEST_F(HugeIommuTest, RangeInvalidationDropsHugeEntries) {
  ASSERT_TRUE(pt->MapHuge(kHuge, 4 * kHuge));
  iommu->Translate(kHuge, 0);
  pt->Unmap(kHuge, kHuge);
  iommu->InvalidateRange(kHuge, kHuge, /*leaf_only=*/true, 1000);
  const TranslationResult r = iommu->Translate(kHuge + kPageSize, 2000);
  EXPECT_TRUE(r.fault);
  EXPECT_FALSE(r.stale_use);
  EXPECT_EQ(stats->Value("iommu.stale_iotlb_use"), 0u);
}

struct DriverRig {
  StatsRegistry stats;
  MemorySystem memory{MemoryConfig{}, &stats};
  IoPageTable page_table;
  Iommu iommu{IommuConfig{}, &memory, &page_table, &stats};
  IovaAllocator iova{IovaAllocatorConfig{}, &stats};
  std::unique_ptr<DmaApi> dma;
  FrameAllocator frames;

  explicit DriverRig(ProtectionMode mode, bool huge) {
    DmaApiConfig config;
    config.mode = mode;
    config.pages_per_chunk = 512;
    config.use_hugepages = huge;
    dma = std::make_unique<DmaApi>(config, &iova, &page_table, &iommu, &stats);
  }

  std::vector<PhysAddr> HugeFrames() {
    const PhysAddr base = frames.AllocHugeFrame();
    std::vector<PhysAddr> out;
    for (int i = 0; i < 512; ++i) {
      out.push_back(base + static_cast<PhysAddr>(i) * kPageSize);
    }
    return out;
  }
};

TEST(HugeDriverTest, FastSafeHugeMapsOneLeafEntry) {
  DriverRig rig(ProtectionMode::kFastSafe, true);
  const auto mapped = rig.dma->MapPages(0, rig.HugeFrames());
  ASSERT_EQ(mapped.mappings.size(), 512u);
  // One huge entry: root + L2 + L3, no PT-L4 pages.
  EXPECT_EQ(rig.page_table.live_table_pages(), 3u);
  EXPECT_EQ(rig.stats.Value("dma.map_ops"), 1u);
  // IOVAs are contiguous and 2 MB aligned.
  EXPECT_EQ(mapped.mappings[0].iova % kHuge, 0u);
  EXPECT_EQ(mapped.mappings[511].iova, mapped.mappings[0].iova + 511 * kPageSize);
  rig.dma->UnmapDescriptor(0, mapped.mappings, 100000);
}

TEST(HugeDriverTest, FastSafeHugeUnmapIsOneOpAndStillStrict) {
  DriverRig rig(ProtectionMode::kFastSafe, true);
  const auto mapped = rig.dma->MapPages(0, rig.HugeFrames());
  rig.iommu.Translate(mapped.mappings[0].iova, 0);
  const auto unmapped = rig.dma->UnmapDescriptor(0, mapped.mappings, 100000);
  EXPECT_EQ(unmapped.invalidation_requests, 1u);
  // Strict safety: the device faults on any post-unmap access.
  for (std::size_t i = 0; i < 512; i += 100) {
    const TranslationResult r = rig.iommu.Translate(mapped.mappings[i].iova, 200000);
    EXPECT_TRUE(r.fault);
    EXPECT_FALSE(r.stale_use);
  }
}

TEST(HugeDriverTest, PersistentPoolReusesMappingsWithoutWork) {
  DriverRig rig(ProtectionMode::kHugepagePersistent, true);
  auto first = rig.dma->AcquirePersistentDescriptor(0, [&] { return rig.frames.AllocHugeFrame(); });
  ASSERT_EQ(first.mappings.size(), 512u);
  EXPECT_GT(first.cpu_ns, 0u);
  rig.dma->ReleasePersistentDescriptor(0, first.mappings);
  auto second =
      rig.dma->AcquirePersistentDescriptor(0, [&] { return rig.frames.AllocHugeFrame(); });
  EXPECT_EQ(second.cpu_ns, 0u);  // pool hit: no mapping work at all
  EXPECT_EQ(second.mappings[0].iova, first.mappings[0].iova);
  EXPECT_EQ(rig.stats.Value("dma.map_ops"), 1u);
}

TEST(HugeDriverTest, PersistentModeLeavesDeviceAccessAfterRelease) {
  // The weaker-safety property, demonstrated: after the buffer is released
  // back to the pool, the device can STILL translate and reach it.
  DriverRig rig(ProtectionMode::kHugepagePersistent, true);
  auto desc = rig.dma->AcquirePersistentDescriptor(0, [&] { return rig.frames.AllocHugeFrame(); });
  rig.dma->ReleasePersistentDescriptor(0, desc.mappings);
  const TranslationResult r = rig.iommu.Translate(desc.mappings[0].iova, 1000);
  EXPECT_FALSE(r.fault);  // access succeeds: the mapping was never revoked
  EXPECT_FALSE(IsStrictlySafe(ProtectionMode::kHugepagePersistent));
  EXPECT_TRUE(IsStrictlySafe(ProtectionMode::kFastSafe));
}

TEST(HugeTestbedTest, FastSafeHugeReachesLineRateWithFewerMisses) {
  TestbedConfig config;
  config.mode = ProtectionMode::kFastSafe;
  config.cores = 5;
  config.host.use_hugepages = true;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 5);
  const WindowResult r = testbed.RunWindow(10 * kNsPerMs, 15 * kNsPerMs);
  EXPECT_GT(r.goodput_gbps, 95.0);
  EXPECT_LT(r.iotlb_miss_per_page, 0.5);  // ~5x below 4 KB F&S
  EXPECT_EQ(r.safety_violations, 0u);
}

TEST(HugeTestbedTest, PersistentModeNearZeroMisses) {
  TestbedConfig config;
  config.mode = ProtectionMode::kHugepagePersistent;
  config.cores = 5;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 5);
  const WindowResult r = testbed.RunWindow(10 * kNsPerMs, 15 * kNsPerMs);
  EXPECT_GT(r.goodput_gbps, 95.0);
  EXPECT_LT(r.iotlb_miss_per_page, 0.05);
}

}  // namespace
}  // namespace fsio

// CapabilityTable property tests plus the DmaApi-level capability-mode
// contract: grant/revoke/epoch-reuse round-trips, stale-epoch check failure,
// revoke idempotence, a randomized lockstep run against a flat reference
// map, and the dma_after_revoke oracle invariant catching a device that
// ignores the check verdict.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/capability/capability_table.h"
#include "src/driver/dma_api.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iova/iova_allocator.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

Iova Page(std::uint64_t n) { return n * kPageSize; }

TEST(CapabilityTableTest, GrantRevokeRoundTrip) {
  CapabilityTable table(CapabilityConfig{});
  const auto g = table.Grant({Page(3), Page(7), Page(9)});
  EXPECT_NE(g.id.slot, 0u);
  EXPECT_EQ(g.cpu_ns, CapabilityTable::kGrantCpuNs + 3 * CapabilityTable::kGrantPageCpuNs);
  EXPECT_EQ(table.live_capabilities(), 1u);
  EXPECT_EQ(table.granted_pages(), 3u);
  for (std::uint64_t p : {3, 7, 9}) {
    const auto c = table.Check(Page(static_cast<std::uint64_t>(p)));
    EXPECT_TRUE(c.granted);
    EXPECT_EQ(c.id.slot, g.id.slot);
    EXPECT_EQ(c.check_ns, CapabilityConfig{}.check_ns);
  }
  EXPECT_FALSE(table.Check(Page(4)).granted);
  EXPECT_TRUE(table.CheckHandle(g.id));

  const auto r = table.Revoke(g.id);
  EXPECT_TRUE(r.revoked);
  EXPECT_EQ(table.live_capabilities(), 0u);
  EXPECT_EQ(table.granted_pages(), 0u);
  EXPECT_FALSE(table.CheckHandle(g.id));
  for (std::uint64_t p : {3, 7, 9}) {
    EXPECT_FALSE(table.Check(Page(static_cast<std::uint64_t>(p))).granted);
  }
}

TEST(CapabilityTableTest, RevokeIsIdempotent) {
  StatsRegistry stats;
  CapabilityTable table(CapabilityConfig{}, &stats);
  const auto g = table.GrantRange(Page(10), 4);
  const auto first = table.Revoke(g.id);
  EXPECT_TRUE(first.revoked);
  const auto second = table.Revoke(g.id);
  EXPECT_FALSE(second.revoked);
  EXPECT_EQ(second.cpu_ns, 0);
  EXPECT_EQ(stats.Value("capability.double_revokes"), 1u);
  // A default-constructed (slot 0) id is always a stale no-op too.
  EXPECT_FALSE(table.Revoke(CapabilityId{}).revoked);
}

TEST(CapabilityTableTest, EpochReuseKeepsStaleHandlesDead) {
  CapabilityTable table(CapabilityConfig{});
  const auto first = table.GrantRange(Page(1), 2);
  table.Revoke(first.id);
  // The slot recycles to the next grant with a bumped epoch: the new handle
  // works, the stale one stays dead — even though both name the same slot.
  const auto second = table.GrantRange(Page(50), 2);
  ASSERT_EQ(second.id.slot, first.id.slot);
  EXPECT_GT(second.id.epoch, first.id.epoch);
  EXPECT_TRUE(table.CheckHandle(second.id));
  EXPECT_FALSE(table.CheckHandle(first.id));
  // And the stale handle cannot revoke the new grant out from under it.
  EXPECT_FALSE(table.Revoke(first.id).revoked);
  EXPECT_TRUE(table.CheckHandle(second.id));
}

TEST(CapabilityTableTest, RevokeOfArmedCapabilityQuiesces) {
  const CapabilityConfig config;
  CapabilityTable table(config);
  const auto idle = table.GrantRange(Page(1), 1);
  const auto armed = table.GrantRange(Page(2), 1);
  table.Check(Page(2));  // the device validated a descriptor against it

  const auto r_idle = table.Revoke(idle.id);
  EXPECT_TRUE(r_idle.revoked);
  EXPECT_FALSE(r_idle.quiesced);
  EXPECT_EQ(r_idle.cpu_ns, CapabilityTable::kRevokeCpuNs);

  const auto r_armed = table.Revoke(armed.id);
  EXPECT_TRUE(r_armed.revoked);
  EXPECT_TRUE(r_armed.quiesced);
  EXPECT_EQ(r_armed.cpu_ns, CapabilityTable::kRevokeCpuNs + CapabilityTable::kQuiesceCpuNs);
}

// Randomized lockstep against the obviously-correct flat model: a map from
// page to grant tag. Every divergence in grant coverage, check outcome or
// handle validity is a bug in the table's slot/epoch/index machinery.
TEST(CapabilityTableTest, RandomizedLockstepAgainstFlatMap) {
  StatsRegistry stats;
  CapabilityTable table(CapabilityConfig{}, &stats);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;  // page -> grant tag
  struct LiveGrant {
    CapabilityId id;
    std::uint64_t tag;
    std::vector<std::uint64_t> pages;
  };
  std::vector<LiveGrant> live;
  std::vector<CapabilityId> dead;  // revoked handles: must stay dead forever
  std::uint64_t next_tag = 1;
  std::uint64_t grants_issued = 0;

  Rng rng(2024);
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t dice = rng.NextBelow(100);
    if (dice < 35 || live.empty()) {
      // Honest callers never double-grant a covered page (the DMA driver
      // owns the page lifecycle), so pick only uncovered pages.
      LiveGrant g;
      g.tag = next_tag++;
      const std::uint64_t n = 1 + rng.NextBelow(8);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t page = rng.NextBelow(512);
        if (ref.contains(page)) {
          continue;
        }
        ref[page] = g.tag;
        g.pages.push_back(page);
      }
      if (g.pages.empty()) {
        continue;
      }
      std::vector<Iova> addrs;
      for (std::uint64_t p : g.pages) {
        addrs.push_back(Page(p));
      }
      g.id = table.Grant(addrs).id;
      live.push_back(std::move(g));
      ++grants_issued;
    } else if (dice < 60) {
      const std::size_t idx = rng.NextBelow(live.size());
      LiveGrant g = std::move(live[idx]);
      live[idx] = std::move(live.back());
      live.pop_back();
      for (std::uint64_t p : g.pages) {
        auto it = ref.find(p);
        if (it != ref.end() && it->second == g.tag) {
          ref.erase(it);
        }
      }
      EXPECT_TRUE(table.Revoke(g.id).revoked) << "step " << step;
      dead.push_back(g.id);
    } else {
      const std::uint64_t page = rng.NextBelow(512);
      const auto c = table.Check(Page(page));
      EXPECT_EQ(c.granted, ref.contains(page)) << "step " << step << " page " << page;
    }
    if ((step & 0x1ff) == 0x1ff) {
      std::string detail;
      ASSERT_TRUE(table.CheckConsistency(&detail)) << "step " << step << ": " << detail;
      for (const LiveGrant& g : live) {
        EXPECT_TRUE(table.CheckHandle(g.id));
      }
      for (const CapabilityId& id : dead) {
        EXPECT_FALSE(table.CheckHandle(id));
      }
      EXPECT_EQ(table.granted_pages(), ref.size());
      EXPECT_EQ(table.live_capabilities(), live.size());
    }
  }
  EXPECT_EQ(stats.Value("capability.grants"), grants_issued);
  EXPECT_EQ(stats.Value("capability.revokes"), dead.size());
}

// ---------------------------------------------------------------------------
// DmaApi integration: capability mode grants on map, revokes on unmap, and
// the dma_after_revoke invariant catches a device that ignores the verdict.

class CapabilityDmaTest : public ::testing::Test {
 protected:
  CapabilityDmaTest() {
    DmaApiConfig config;
    config.mode = ProtectionMode::kCapability;
    iova_ = std::make_unique<IovaAllocator>(IovaAllocatorConfig{}, &stats_);
    dma_ = std::make_unique<DmaApi>(config, iova_.get(), &pt_, /*iommu=*/nullptr, &stats_);
    dma_->SetSafetyOracle(&oracle_);
    dma_->RegisterInvariants(&invariants_);
  }

  StatsRegistry stats_;
  SafetyOracle oracle_{&stats_};
  InvariantRegistry invariants_{&stats_};
  IoPageTable pt_;
  std::unique_ptr<IovaAllocator> iova_;
  std::unique_ptr<DmaApi> dma_;
};

TEST_F(CapabilityDmaTest, MapGrantsAndUnmapRevokes) {
  const auto mapped = dma_->MapPages(0, {Page(40), Page(41), Page(42)});
  ASSERT_EQ(mapped.mappings.size(), 3u);
  for (const DmaMapping& m : mapped.mappings) {
    EXPECT_EQ(m.iova, m.phys);  // pass-through: no IOVA indirection
    EXPECT_TRUE(dma_->DeviceCheckCapability(m.iova, 1, 1000).allowed);
  }
  EXPECT_EQ(pt_.mapped_pages(), 0u);  // the IOMMU path is never programmed

  const auto unmapped = dma_->UnmapDescriptor(0, mapped.mappings, 2000);
  EXPECT_GT(unmapped.cpu_ns, 0);
  for (const DmaMapping& m : mapped.mappings) {
    EXPECT_FALSE(dma_->DeviceCheckCapability(m.iova, 1, 3000).allowed);
  }
  EXPECT_EQ(invariants_.CheckAll(4000), 0u);
  EXPECT_EQ(oracle_.total_violations(), 0u);
}

TEST_F(CapabilityDmaTest, DmaAfterRevokeInvariantCatchesSkippedCheck) {
  const auto mapped = dma_->MapPages(0, {Page(40)});
  ASSERT_EQ(mapped.mappings.size(), 1u);
  const Iova addr = mapped.mappings[0].iova;
  dma_->UnmapDescriptor(0, mapped.mappings, 1000);

  // Honest device: the check refuses, no access lands, the invariant holds.
  EXPECT_FALSE(dma_->DeviceCheckCapability(addr, 1, 2000).allowed);
  EXPECT_EQ(invariants_.CheckAll(2500), 0u);

  // Buggy device (skip_capability_check): the verdict is ignored, the access
  // proceeds into revoked memory, and dma_after_revoke must fire.
  const auto skipped = dma_->DeviceCheckCapability(addr, 1, 3000, /*enforce=*/false);
  EXPECT_FALSE(skipped.granted);
  EXPECT_TRUE(skipped.allowed);
  EXPECT_GE(oracle_.count(SafetyViolationKind::kUseAfterUnmap), 1u);
  EXPECT_GT(invariants_.CheckAll(3500), 0u);
}

TEST_F(CapabilityDmaTest, DoubleUnmapIsDetected) {
  const auto mapped = dma_->MapPages(0, {Page(40), Page(41)});
  dma_->UnmapDescriptor(0, mapped.mappings, 1000);
  dma_->UnmapDescriptor(0, mapped.mappings, 2000);
  EXPECT_EQ(stats_.Value("dma.double_unmap"), 2u);
  EXPECT_GT(invariants_.failure_count(), 0u);
}

}  // namespace
}  // namespace fsio

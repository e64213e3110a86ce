// Tests for the multi-tenant IOMMU subsystem: domain tagging, the domain
// table, selective vs. global invalidation, way partitioning, the untagged-
// IOTLB oracle check, the link arbiter, and TenantSystem's datapath in
// every mode and its crash/recovery.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/mem/address.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/stats/counters.h"
#include "src/tenant/domain.h"
#include "src/tenant/tenant_system.h"

namespace fsio {
namespace {

// ---------------------------------------------------------------------------
// Tag encoding.

TEST(DomainTagTest, HostDomainTagsAsZero) {
  // The single-tenant fast path depends on this: domain 0 computes the exact
  // same cache tags as the pre-domain model.
  EXPECT_EQ(DomainTagBits(kHostDomain), 0u);
  EXPECT_EQ(DomainOfTag(0x1234000), kHostDomain);
  EXPECT_EQ(StripDomainTag(0x1234000), 0x1234000u);
}

TEST(DomainTagTest, TagRoundTrips) {
  const DomainId d{7};
  const std::uint64_t page = 0x42;
  const std::uint64_t tag = DomainTagBits(d) | page;
  EXPECT_EQ(DomainOfTag(tag), d);
  EXPECT_EQ(StripDomainTag(tag), page);
}

TEST(DomainTableTest, RetiredIdsAreNeverReused) {
  IoPageTable host_pt;
  IoPageTable pt_a;
  IoPageTable pt_b;
  DomainTable table(&host_pt);
  const DomainId a = table.Add(&pt_a);
  table.Retire(a);
  EXPECT_FALSE(table.IsLive(a));
  EXPECT_EQ(table.Find(a), nullptr);
  const DomainId b = table.Add(&pt_b);
  EXPECT_NE(a, b);
  EXPECT_TRUE(table.IsLive(b));
  // The host domain can not be retired.
  table.Retire(kHostDomain);
  EXPECT_TRUE(table.IsLive(kHostDomain));
}

// ---------------------------------------------------------------------------
// Shared-IOMMU invalidation semantics.

class TenantIommuTest : public ::testing::Test {
 protected:
  void Rebuild(const IommuConfig& config) {
    stats_ = std::make_unique<StatsRegistry>();
    memory_ = std::make_unique<MemorySystem>(MemoryConfig{}, stats_.get());
    host_pt_ = std::make_unique<IoPageTable>();
    iommu_ = std::make_unique<Iommu>(config, memory_.get(), host_pt_.get(), stats_.get());
    pt_a_ = std::make_unique<IoPageTable>();
    pt_b_ = std::make_unique<IoPageTable>();
    a_ = iommu_->AddDomain(pt_a_.get());
    b_ = iommu_->AddDomain(pt_b_.get());
  }

  // Maps `pages` pages in `pt` and translates them through `domain` so the
  // IOTLB holds that many domain-tagged entries.
  void Warm(DomainId domain, IoPageTable* pt, std::uint32_t pages) {
    for (std::uint32_t i = 0; i < pages; ++i) {
      const Iova iova = static_cast<Iova>(i) * kPageSize;
      pt->Map(iova, 0x100000 + domain.value * 0x1000000ULL + iova);
      t_ += 3000;
      iommu_->Translate(domain, iova, t_);
    }
  }

  std::uint64_t Resident(DomainId domain) const {
    return iommu_->iotlb().CountMatching(kDomainFieldMask, DomainTagBits(domain));
  }

  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<IoPageTable> host_pt_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<IoPageTable> pt_a_;
  std::unique_ptr<IoPageTable> pt_b_;
  DomainId a_{};
  DomainId b_{};
  TimeNs t_ = 0;
};

TEST_F(TenantIommuTest, SelectiveFlushLeavesOtherDomainsResident) {
  Rebuild(IommuConfig{});
  Warm(a_, pt_a_.get(), 4);
  Warm(b_, pt_b_.get(), 4);
  ASSERT_EQ(Resident(a_), 4u);
  ASSERT_EQ(Resident(b_), 4u);
  iommu_->InvalidateDomain(a_, t_);
  EXPECT_EQ(Resident(a_), 0u);
  EXPECT_EQ(Resident(b_), 4u) << "selective flush must not touch other domains";
  // Domain B still hits; domain A walks again.
  t_ += 3000;
  EXPECT_TRUE(iommu_->Translate(b_, 0, t_).iotlb_hit);
  t_ += 3000;
  EXPECT_FALSE(iommu_->Translate(a_, 0, t_).iotlb_hit);
}

TEST_F(TenantIommuTest, GlobalFlushClearsEveryDomain) {
  Rebuild(IommuConfig{});
  Warm(a_, pt_a_.get(), 4);
  Warm(b_, pt_b_.get(), 4);
  iommu_->InvalidateAll(t_);
  EXPECT_EQ(Resident(a_), 0u);
  EXPECT_EQ(Resident(b_), 0u);
}

TEST_F(TenantIommuTest, InvalidatingDeadOrUnknownDomainIsSafeNoOp) {
  Rebuild(IommuConfig{});
  Warm(a_, pt_a_.get(), 4);
  Warm(b_, pt_b_.get(), 4);
  // Never-allocated id: no effect, completes immediately.
  const TimeNs at = t_ + 10;
  EXPECT_EQ(iommu_->InvalidateDomain(DomainId{999}, at), at);
  EXPECT_EQ(Resident(a_), 4u);
  EXPECT_EQ(Resident(b_), 4u);
  // Retired id: also a no-op (the entries linger until a real flush, but
  // translations against the dead domain fault, so they are unreachable).
  iommu_->RetireDomain(a_);
  EXPECT_EQ(iommu_->InvalidateDomain(a_, at), at);
  EXPECT_EQ(Resident(b_), 4u);
  t_ += 3000;
  EXPECT_TRUE(iommu_->Translate(a_, 0, t_).fault);
}

TEST_F(TenantIommuTest, WayPartitioningConfinesEvictions) {
  IommuConfig config;
  config.iotlb_partitions = 2;
  Rebuild(config);
  // Victim (domain A) takes one entry; attacker (domain B) floods far more
  // pages than the IOTLB holds. Under way partitioning the flood can only
  // recycle B's own ways, so A's entry survives.
  Warm(a_, pt_a_.get(), 1);
  Warm(b_, pt_b_.get(), 4 * config.iotlb_sets * config.iotlb_ways);
  EXPECT_EQ(Resident(a_), 1u);
  t_ += 3000;
  EXPECT_TRUE(iommu_->Translate(a_, 0, t_).iotlb_hit);
}

TEST_F(TenantIommuTest, SharedPolicyLetsNeighborEvict) {
  // Control for the partitioning test: with the shared policy the same flood
  // does evict the victim's entry.
  Rebuild(IommuConfig{});
  Warm(a_, pt_a_.get(), 1);
  Warm(b_, pt_b_.get(), 4 * IommuConfig{}.iotlb_sets * IommuConfig{}.iotlb_ways);
  EXPECT_EQ(Resident(a_), 0u);
}

TEST_F(TenantIommuTest, UntaggedIotlbBugIsCaughtByOracle) {
  IommuConfig config;
  config.inject_untagged_iotlb = true;
  Rebuild(config);
  SafetyOracle oracle_a;
  SafetyOracle oracle_b;
  iommu_->SetDomainOracle(a_, &oracle_a);
  iommu_->SetDomainOracle(b_, &oracle_b);
  // Same numeric IOVA, different domains, different phys. With tagging
  // broken, B's lookup hits A's entry and resolves to A's frame.
  pt_a_->Map(0, 0xaa000);
  pt_b_->Map(0, 0xbb000);
  oracle_a.OnMap(0, 1);
  oracle_a.OnMapBacking(0, 1, 0xaa000);
  oracle_b.OnMap(0, 1);
  oracle_b.OnMapBacking(0, 1, 0xbb000);
  iommu_->Translate(a_, 0, 3000);
  const TranslationResult r = iommu_->Translate(b_, 0, 6000);
  EXPECT_TRUE(r.iotlb_hit);
  EXPECT_TRUE(r.cross_domain);
  EXPECT_EQ(oracle_b.count(SafetyViolationKind::kCrossDomainHit), 1u);
  EXPECT_EQ(oracle_a.count(SafetyViolationKind::kCrossDomainHit), 0u);
  EXPECT_EQ(stats_->Value("iommu.cross_domain_hits"), 1u);
}

TEST_F(TenantIommuTest, CorrectTaggingNeverCrossesDomains) {
  Rebuild(IommuConfig{});
  SafetyOracle oracle_a;
  SafetyOracle oracle_b;
  iommu_->SetDomainOracle(a_, &oracle_a);
  iommu_->SetDomainOracle(b_, &oracle_b);
  pt_a_->Map(0, 0xaa000);
  pt_b_->Map(0, 0xbb000);
  oracle_a.OnMap(0, 1);
  oracle_a.OnMapBacking(0, 1, 0xaa000);
  oracle_b.OnMap(0, 1);
  oracle_b.OnMapBacking(0, 1, 0xbb000);
  iommu_->Translate(a_, 0, 3000);
  const TranslationResult r = iommu_->Translate(b_, 0, 6000);
  EXPECT_FALSE(r.iotlb_hit) << "B's first access must miss: A's entry is tagged";
  EXPECT_EQ(r.phys, 0xbb000u);
  EXPECT_EQ(oracle_a.count(SafetyViolationKind::kCrossDomainHit), 0u);
  EXPECT_EQ(oracle_b.count(SafetyViolationKind::kCrossDomainHit), 0u);
  EXPECT_EQ(stats_->Value("iommu.cross_domain_hits"), 0u);
}

// ---------------------------------------------------------------------------
// FunctionArbiter: weighted round-robin link grants.

// Drains every queued job through the arbiter and returns the granted
// function indices in grant order.
std::vector<std::size_t> Grants(const std::vector<std::uint32_t>& weights,
                                const std::vector<std::uint32_t>& jobs) {
  FunctionArbiter arbiter;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    arbiter.Add(weights[i]);
    arbiter.Enqueue(i, jobs[i]);
  }
  std::vector<std::size_t> grants;
  while (const std::optional<std::size_t> fn = arbiter.Next()) {
    grants.push_back(*fn);
  }
  return grants;
}

TEST(FunctionArbiterTest, GrantsWeightsOneAndFour) {
  // Function 1 runs dry during the second credit cycle; function 0's last
  // job then starts a third cycle on its own.
  EXPECT_EQ(Grants({1, 4}, {3, 6}),
            (std::vector<std::size_t>{0, 1, 1, 1, 1, 0, 1, 1, 0}));
}

TEST(FunctionArbiterTest, GrantsWeightsOneTwoTwo) {
  // Function 1 runs dry in the first cycle; the others keep their shares.
  EXPECT_EQ(Grants({1, 2, 2}, {4, 2, 5}),
            (std::vector<std::size_t>{0, 1, 2, 1, 2, 0, 2, 2, 0, 2, 0}));
}

TEST(FunctionArbiterTest, NoWorkGrantsNothing) {
  EXPECT_TRUE(Grants({}, {}).empty());
  EXPECT_TRUE(Grants({1, 3}, {0, 0}).empty());
}

// ---------------------------------------------------------------------------
// TenantSystem: the end-to-end multi-tenant testbed.

TenantSystemConfig TwoTenantConfig(ProtectionMode mode) {
  TenantSystemConfig config;
  TenantConfig victim;
  victim.mode = mode;
  victim.latency_critical = true;
  TenantConfig neighbor;
  neighbor.mode = mode;
  neighbor.latency_critical = true;
  neighbor.weight = 2;
  config.tenants = {victim, neighbor};
  config.churn_pages = 8;
  return config;
}

TEST(TenantSystemTest, TwoTenantsMakeProgressWithoutViolations) {
  TenantSystem system(TwoTenantConfig(ProtectionMode::kStrict));
  system.RunRounds(50);
  const TenantReport victim = system.Report(0);
  const TenantReport neighbor = system.Report(1);
  EXPECT_EQ(victim.ops, 50u);
  EXPECT_EQ(neighbor.ops, 100u) << "weight 2 gets twice the arbiter grants";
  EXPECT_GT(victim.p50_ns, 0u);
  EXPECT_EQ(victim.violations, 0u);
  EXPECT_EQ(neighbor.violations, 0u);
  EXPECT_EQ(victim.cross_domain, 0u);
  EXPECT_EQ(system.stats().Value("iommu.cross_domain_hits"), 0u);
}

// Every mode runs the one tenant datapath: a latency-critical tenant next to
// a churn neighbor lands every DMA, only the IOMMU modes translate, and a
// capability tenant's device check refuses a revoked descriptor.
TEST(TenantSystemTest, EveryModeLandsEveryDma) {
  for (ProtectionMode mode : kAllModes) {
    SCOPED_TRACE(ProtectionModeName(mode));
    TenantSystemConfig config = TwoTenantConfig(mode);
    config.tenants[1].latency_critical = false;
    config.tenants[1].pipeline_depth = 4;
    TenantSystem system(config);
    system.RunRounds(50);
    for (std::size_t i = 0; i < 2; ++i) {
      const TenantReport r = system.Report(i);
      EXPECT_GT(r.ops, 0u);
      EXPECT_EQ(r.faulted_dmas, 0u);
      EXPECT_EQ(r.violations, 0u);
      const std::uint64_t translations = system.stats().Value(
          "tenant." + std::to_string(system.domain(i).id().value) + ".translations");
      if (UsesIommu(mode)) {
        EXPECT_GT(translations, 0u);
      } else {
        EXPECT_EQ(translations, 0u);
      }
    }
    if (mode == ProtectionMode::kCapability) {
      std::vector<DmaMapping> desc;
      for (Iova iova : system.StrandedIovas(0)) {
        desc.push_back(DmaMapping{iova, iova, 0});
      }
      ASSERT_FALSE(desc.empty());
      DmaApi& dma = system.domain(0).dma();
      EXPECT_TRUE(dma.DeviceCheckCapability(desc, system.now()).allowed);
      dma.UnmapDescriptor(0, desc, system.now());
      EXPECT_FALSE(dma.DeviceCheckCapability(desc, system.now()).allowed);
      EXPECT_EQ(system.Report(0).violations, 0u);
    }
  }
}

TEST(TenantSystemTest, CrashRecoveryInvalidatesOnlyTheCrashedDomain) {
  TenantSystem system(TwoTenantConfig(ProtectionMode::kStrict));
  system.RunRounds(50);
  system.CrashTenant(0);
  system.RunRounds(20);
  const DomainId crashed = system.domain(0).id();
  const DomainId witness = system.domain(1).id();

  // The crash strands the in-flight descriptor, still device-visible.
  const std::vector<Iova> stranded = system.StrandedIovas(0);
  ASSERT_FALSE(stranded.empty());
  EXPECT_FALSE(system.iommu().Translate(crashed, stranded.front(), system.now()).fault);

  const std::uint64_t witness_resident =
      system.iommu().iotlb().CountMatching(kDomainFieldMask, DomainTagBits(witness));
  ASSERT_GT(witness_resident, 0u);

  system.RecoverTenant(0);
  EXPECT_EQ(system.iommu().iotlb().CountMatching(kDomainFieldMask, DomainTagBits(crashed)),
            0u);
  EXPECT_EQ(system.iommu().iotlb().CountMatching(kDomainFieldMask, DomainTagBits(witness)),
            witness_resident)
      << "recovery must invalidate only the crashed domain";
  // The stranded descriptor is revoked: device access now faults cleanly.
  const TranslationResult post =
      system.iommu().Translate(crashed, stranded.front(), system.now());
  EXPECT_TRUE(post.fault);
  EXPECT_FALSE(post.stale_use);

  system.RunRounds(20);
  EXPECT_EQ(system.Report(0).ops, 70u) << "recovered tenant resumes (50 + 20 rounds)";
  EXPECT_EQ(system.Report(0).violations, 0u);
  EXPECT_EQ(system.Report(1).violations, 0u);
  EXPECT_EQ(system.stats().Value("iommu.cross_domain_hits"), 0u);
}

TEST(TenantSystemTest, RecoveredDomainStillReportsToItsOracle) {
  // Deferred mode leaves an unmapped descriptor's IOTLB entries resident
  // until the flush queue drains: a device access through one is a
  // use-after-unmap the tenant's own oracle must record, also after
  // recovery rebuilt the tenant's driver stack.
  TenantSystem system(TwoTenantConfig(ProtectionMode::kDeferred));
  system.RunRounds(20);
  system.CrashTenant(0);
  system.RecoverTenant(0);
  system.RunRounds(1);
  const std::vector<Iova> previous = system.StrandedIovas(0);
  ASSERT_FALSE(previous.empty());
  system.RunRounds(1);  // the next op unmaps `previous`; its flush waits
  EXPECT_EQ(system.Report(0).violations, 0u);

  const TranslationResult r =
      system.iommu().Translate(system.domain(0).id(), previous.front(), system.now());
  EXPECT_TRUE(r.stale_iotlb);
  EXPECT_EQ(system.Report(0).violations, 1u);
  EXPECT_EQ(system.Report(1).violations, 0u);
}

}  // namespace
}  // namespace fsio

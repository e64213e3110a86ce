// Tests for the fault-injection harness and the end-to-end DMA safety
// oracle: injector determinism and trigger windows, oracle violation
// classification, the driver's invalidation retry/backoff/fallback path,
// double-unmap detection, allocator-fault masking, and the NIC's injected
// completion misbehaviour.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/dma_api.h"
#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/nic/nic.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/event_queue.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

FaultSpec Spec(FaultKind kind) {
  FaultSpec spec;
  spec.kind = kind;
  return spec;
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.seed = 42;
  FaultSpec spec = Spec(FaultKind::kWalkerLatencySpike);
  spec.probability = 0.5;
  plan.Add(spec);

  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    const FaultDecision da = a.Sample(FaultKind::kWalkerLatencySpike, i * 100);
    const FaultDecision db = b.Sample(FaultKind::kWalkerLatencySpike, i * 100);
    ASSERT_EQ(da.fire, db.fire) << "diverged at sample " << i;
  }
  EXPECT_GT(a.fired(FaultKind::kWalkerLatencySpike), 0u);
  EXPECT_LT(a.fired(FaultKind::kWalkerLatencySpike), 1000u);
}

TEST(FaultInjectorTest, PerKindStreamsAreIndependent) {
  FaultPlan plan;
  plan.seed = 7;
  FaultSpec spec = Spec(FaultKind::kInvalidationStall);
  spec.probability = 0.5;
  plan.Add(spec);

  // Interleaving samples of a different kind must not perturb the stall
  // stream (each kind draws from its own SplitMix64 stream).
  FaultInjector pure(plan);
  FaultInjector mixed(plan);
  std::vector<bool> pure_fires;
  std::vector<bool> mixed_fires;
  for (int i = 0; i < 200; ++i) {
    pure_fires.push_back(pure.Sample(FaultKind::kInvalidationStall, i).fire);
    // Stream-advance only: this test checks per-kind stream independence.
    mixed.Sample(FaultKind::kWalkerLatencySpike, i);  // fsio-lint: allow(discarded-fault-decision)
    mixed_fires.push_back(mixed.Sample(FaultKind::kInvalidationStall, i).fire);
  }
  EXPECT_EQ(pure_fires, mixed_fires);
}

TEST(FaultInjectorTest, WindowsAndBudgetsFilter) {
  FaultPlan plan;
  FaultSpec timed = Spec(FaultKind::kInvalidationStall);
  timed.window_start_ns = 1000;
  timed.window_end_ns = 2000;
  plan.Add(timed);
  FaultSpec counted = Spec(FaultKind::kInvalidationDrop);
  counted.op_start = 2;
  counted.op_end = 4;
  plan.Add(counted);
  FaultSpec budgeted = Spec(FaultKind::kWalkerLatencySpike);
  budgeted.max_fires = 2;
  plan.Add(budgeted);
  FaultSpec cored = Spec(FaultKind::kIovaExhaustion);
  cored.target_core = 3;
  plan.Add(cored);

  FaultInjector inj(plan);
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationStall, 999).fire);
  EXPECT_TRUE(inj.Sample(FaultKind::kInvalidationStall, 1000).fire);
  EXPECT_TRUE(inj.Sample(FaultKind::kInvalidationStall, 1999).fire);
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationStall, 2000).fire);

  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 0
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 1
  EXPECT_TRUE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);   // op 2
  EXPECT_TRUE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);   // op 3
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 4

  EXPECT_TRUE(inj.Sample(FaultKind::kWalkerLatencySpike, 0).fire);
  EXPECT_TRUE(inj.Sample(FaultKind::kWalkerLatencySpike, 0).fire);
  EXPECT_FALSE(inj.Sample(FaultKind::kWalkerLatencySpike, 0).fire);  // budget spent

  EXPECT_FALSE(inj.Sample(FaultKind::kIovaExhaustion, 0, /*core=*/1).fire);
  EXPECT_TRUE(inj.Sample(FaultKind::kIovaExhaustion, 0, /*core=*/3).fire);
}

TEST(FaultInjectorTest, OpWindowBoundsAreExactCallIndices) {
  // Contract (fault_injector.h): the per-kind op counter advances BEFORE the
  // window check, so [op_start=N, op_end=N+1) matches exactly the (N+1)-th
  // Sample call of that kind — never the N-th, never the (N+2)-th.
  FaultPlan plan;
  FaultSpec spec = Spec(FaultKind::kInvalidationDrop);
  spec.op_start = 2;
  spec.op_end = 3;
  plan.Add(spec);
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 0
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 1
  EXPECT_TRUE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);   // op 2: 3rd call
  EXPECT_FALSE(inj.Sample(FaultKind::kInvalidationDrop, 0).fire);  // op 3
  EXPECT_EQ(inj.fired(FaultKind::kInvalidationDrop), 1u);
}

TEST(FaultInjectorTest, SpentMaxFiresFallsThroughToLaterSpecs) {
  // Contract: max_fires is checked BEFORE the probability draw, so a spent
  // spec stops consuming its stream and later specs of the same kind take
  // over (first-match-wins with fall-through).
  FaultPlan plan;
  FaultSpec first = Spec(FaultKind::kWalkerLatencySpike);
  first.max_fires = 1;
  first.magnitude_ns = 111;
  plan.Add(first);
  FaultSpec second = Spec(FaultKind::kWalkerLatencySpike);
  second.magnitude_ns = 222;
  plan.Add(second);
  FaultInjector inj(plan);
  EXPECT_EQ(inj.Sample(FaultKind::kWalkerLatencySpike, 0).magnitude_ns, 111u);
  EXPECT_EQ(inj.Sample(FaultKind::kWalkerLatencySpike, 0).magnitude_ns, 222u);
  EXPECT_EQ(inj.Sample(FaultKind::kWalkerLatencySpike, 0).magnitude_ns, 222u);
  EXPECT_EQ(inj.fired(FaultKind::kWalkerLatencySpike), 3u);
}

TEST(FaultInjectorTest, ClusterScaleKindsHaveStableNames) {
  // Repro files and fault-plan logs key on these strings; renaming one
  // silently breaks replay of archived chaos repros.
  EXPECT_STREQ(FaultKindName(FaultKind::kLinkFlap), "link_flap");
  EXPECT_STREQ(FaultKindName(FaultKind::kSwitchPortDown), "switch_port_down");
  EXPECT_STREQ(FaultKindName(FaultKind::kSwitchFailure), "switch_failure");
  EXPECT_STREQ(FaultKindName(FaultKind::kPacketCorruption), "packet_corruption");
  EXPECT_STREQ(FaultKindName(FaultKind::kPacketLossBurst), "packet_loss_burst");
  EXPECT_STREQ(FaultKindName(FaultKind::kHostCrash), "host_crash");
}

TEST(SafetyOracleTest, EpochsOverlapsAndTrace) {
  SafetyOracle oracle;
  oracle.OnMap(0, 2);
  EXPECT_EQ(oracle.live_pages(), 2u);
  oracle.OnMap(0, 1);  // overlapping live map
  EXPECT_EQ(oracle.overlap_maps(), 1u);
  oracle.OnUnmap(0, 2);
  EXPECT_EQ(oracle.live_pages(), 0u);
  oracle.OnMap(0, 1);  // remap bumps the epoch

  DeviceAccess access;
  access.translated = true;
  oracle.OnDeviceAccess(kPageSize, 500, access);  // page 1 is dead
  ASSERT_EQ(oracle.total_violations(), 1u);
  EXPECT_EQ(oracle.count(SafetyViolationKind::kUseAfterUnmap), 1u);
  EXPECT_EQ(oracle.violations()[0].iova, kPageSize);
  EXPECT_EQ(oracle.TraceString(),
            "t=500 iova=0x1000 kind=use_after_unmap epoch=0\n");

  // Unknown pages (never mapped) yield no verdict, faulted accesses either.
  oracle.OnDeviceAccess(100 * kPageSize, 600, access);
  DeviceAccess faulted;
  faulted.translated = false;
  oracle.OnDeviceAccess(kPageSize, 700, faulted);
  EXPECT_EQ(oracle.total_violations(), 1u);
}

TEST(InvariantRegistryTest, ChecksAndHardFailures) {
  InvariantRegistry registry;
  bool healthy = true;
  registry.Register("test.flag", [&healthy](std::string* detail) {
    if (!healthy) {
      *detail = "flag down";
    }
    return healthy;
  });
  EXPECT_EQ(registry.CheckAll(10), 0u);
  healthy = false;
  EXPECT_EQ(registry.CheckAll(20), 1u);
  registry.ReportFailure("test.direct", "observed impossible state", 30);
  EXPECT_EQ(registry.failure_count(), 2u);
  EXPECT_EQ(registry.TraceString(),
            "t=20 invariant=test.flag detail=flag down\n"
            "t=30 invariant=test.direct detail=observed impossible state\n");
}

TEST(IoPageTableTest, CheckConsistencyTracksLifecycle) {
  IoPageTable table;
  std::string detail;
  EXPECT_TRUE(table.CheckConsistency(&detail)) << detail;
  for (int i = 0; i < 600; ++i) {
    table.Map(static_cast<Iova>(i) * kPageSize, 0x1000'0000 + i * kPageSize);
  }
  EXPECT_TRUE(table.CheckConsistency(&detail)) << detail;
  table.Unmap(0, 512 * kPageSize);  // full PT-L4 span: reclaims the page
  EXPECT_TRUE(table.CheckConsistency(&detail)) << detail;
  EXPECT_GT(table.total_table_pages_reclaimed(), 0u);
}

// Driver-level fixture: the full map path with injector, oracle and
// invariant registry wired through every layer.
class FaultedDriverTest : public ::testing::Test {
 protected:
  void Build(ProtectionMode mode, const FaultPlan& plan,
             DmaApiConfig dma_config = DmaApiConfig{}) {
    dma_config.mode = mode;
    stats_ = std::make_unique<StatsRegistry>();
    injector_ = std::make_unique<FaultInjector>(plan, stats_.get());
    oracle_ = std::make_unique<SafetyOracle>(stats_.get());
    registry_ = std::make_unique<InvariantRegistry>(stats_.get());
    memory_ = std::make_unique<MemorySystem>(MemoryConfig{}, stats_.get());
    page_table_ = std::make_unique<IoPageTable>();
    iommu_ = std::make_unique<Iommu>(IommuConfig{}, memory_.get(), page_table_.get(),
                                     stats_.get());
    iommu_->SetFaultInjector(injector_.get());
    iommu_->SetDomainOracle(kHostDomain, oracle_.get());
    IovaAllocatorConfig iova_config;
    iova_config.num_cores = 4;
    iova_ = std::make_unique<IovaAllocator>(iova_config, stats_.get());
    iova_->SetFaultInjector(injector_.get());
    dma_ = std::make_unique<DmaApi>(dma_config, iova_.get(), page_table_.get(), iommu_.get(),
                                    stats_.get());
    dma_->SetFaultInjector(injector_.get());
    dma_->SetSafetyOracle(oracle_.get());
    dma_->RegisterInvariants(registry_.get());
  }

  std::vector<PhysAddr> Frames(int n, PhysAddr base = 0x10000000) {
    std::vector<PhysAddr> frames;
    for (int i = 0; i < n; ++i) {
      frames.push_back(base + static_cast<PhysAddr>(i) * kPageSize);
    }
    return frames;
  }

  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<SafetyOracle> oracle_;
  std::unique_ptr<InvariantRegistry> registry_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<IoPageTable> page_table_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<IovaAllocator> iova_;
  std::unique_ptr<DmaApi> dma_;
};

TEST_F(FaultedDriverTest, OracleFlagsDeferredUseAfterUnmap) {
  Build(ProtectionMode::kDeferred, FaultPlan{});
  const auto result = dma_->MapPages(0, Frames(4));
  ASSERT_EQ(result.mappings.size(), 4u);
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);  // warm the IOTLB
  dma_->UnmapDescriptor(0, result.mappings, 200);  // below flush threshold
  const TranslationResult stale = iommu_->Translate(iova, 300);
  EXPECT_TRUE(stale.iotlb_hit);
  EXPECT_TRUE(stale.stale_iotlb);
  ASSERT_EQ(oracle_->total_violations(), 1u);
  EXPECT_EQ(oracle_->count(SafetyViolationKind::kUseAfterUnmap), 1u);
  EXPECT_EQ(oracle_->violations()[0].iova, iova);
}

TEST_F(FaultedDriverTest, OracleFlagsReclaimedTableWalk) {
  // 512-page descriptors span one full PT-L4 page, so a single-call unmap
  // reclaims it. With the reclamation invalidation "forgotten" (injected
  // driver bug) and PTcaches preserved (F&S), the next walk consumes a
  // cached pointer into the reclaimed page.
  DmaApiConfig config;
  config.pages_per_chunk = 512;
  config.inject_skip_reclaim_invalidation = true;
  Build(ProtectionMode::kFastSafe, FaultPlan{}, config);
  const auto result = dma_->MapPages(0, Frames(512));
  ASSERT_EQ(result.mappings.size(), 512u);
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);  // caches the PT-L4 pointer in PTcache-L3
  dma_->UnmapDescriptor(0, result.mappings, 200);
  iommu_->Translate(iova, 300'000);
  EXPECT_GE(oracle_->count(SafetyViolationKind::kReclaimedTableWalk), 1u);
}

TEST_F(FaultedDriverTest, InvalidationStallTriggersRetryAndStaysSafe) {
  for (ProtectionMode mode : {ProtectionMode::kStrict, ProtectionMode::kFastSafe}) {
    FaultPlan plan;
    FaultSpec stall = Spec(FaultKind::kInvalidationStall);
    stall.magnitude_ns = 200'000;  // far beyond the 50 us wait deadline
    stall.max_fires = 1;
    plan.Add(stall);
    Build(mode, plan);

    const auto result = dma_->MapPages(0, Frames(4));
    const Iova iova = result.mappings[0].iova;
    iommu_->Translate(iova, 100);
    const auto unmap = dma_->UnmapDescriptor(0, result.mappings, 1'000);
    EXPECT_GE(stats_->Value("dma.inv_retries"), 1u) << ProtectionModeName(mode);
    EXPECT_GE(stats_->Value("dma.inv_timeouts"), 1u) << ProtectionModeName(mode);
    // The timed-out wait plus backoff is charged to the calling CPU.
    EXPECT_GT(unmap.cpu_ns, DmaApiConfig{}.inv_wait_timeout_ns) << ProtectionModeName(mode);
    // Safety: the stalled request still dropped the IOTLB entries, and the
    // retry completed before the unmap returned.
    const TranslationResult after = iommu_->Translate(iova, unmap.hw_done + 1'000'000);
    EXPECT_TRUE(after.fault) << ProtectionModeName(mode);
    EXPECT_EQ(oracle_->total_violations(), 0u) << ProtectionModeName(mode);
    EXPECT_EQ(registry_->failure_count(), 0u) << ProtectionModeName(mode);
  }
}

TEST_F(FaultedDriverTest, DroppedInvalidationIsRetriedUntilDelivered) {
  FaultPlan plan;
  FaultSpec drop = Spec(FaultKind::kInvalidationDrop);
  drop.max_fires = 2;
  plan.Add(drop);
  Build(ProtectionMode::kFastSafe, plan);

  const auto result = dma_->MapPages(0, Frames(4));
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(stats_->Value("iommu.inv_dropped"), 2u);
  EXPECT_EQ(stats_->Value("dma.inv_retries"), 2u);
  EXPECT_EQ(stats_->Value("dma.inv_fallback_flushes"), 0u);
  // The third (delivered) request dropped the stale IOTLB entry.
  EXPECT_TRUE(iommu_->Translate(iova, 1'000'000).fault);
  EXPECT_EQ(oracle_->total_violations(), 0u);
}

TEST_F(FaultedDriverTest, AllRetriesDroppedFallsBackToGlobalFlush) {
  FaultPlan plan;
  plan.Add(Spec(FaultKind::kInvalidationDrop));  // every request lost
  DmaApiConfig config;
  config.inv_max_retries = 2;
  Build(ProtectionMode::kFastSafe, plan, config);

  const auto result = dma_->MapPages(0, Frames(4));
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(stats_->Value("dma.inv_fallback_flushes"), 1u);
  EXPECT_EQ(stats_->Value("iommu.inv_dropped"), 3u);  // initial + 2 retries
  // The global flush (never dropped) preserved safety.
  EXPECT_TRUE(iommu_->Translate(iova, 1'000'000).fault);
  EXPECT_EQ(oracle_->total_violations(), 0u);
}

TEST_F(FaultedDriverTest, DropBudgetExactlyExhaustingRetriesTriggersFallback) {
  // Default retry budget: the initial submission plus inv_max_retries (4)
  // re-submissions. A drop window covering exactly those 5 requests forces
  // the global-flush fallback — the edge where the ladder is spent by one.
  FaultPlan plan;
  FaultSpec drop = Spec(FaultKind::kInvalidationDrop);
  drop.op_end = 5;
  plan.Add(drop);
  Build(ProtectionMode::kFastSafe, plan);

  const auto result = dma_->MapPages(0, Frames(4));
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(stats_->Value("iommu.inv_dropped"), 5u);
  EXPECT_EQ(stats_->Value("dma.inv_retries"), 4u);
  EXPECT_EQ(stats_->Value("dma.inv_timeouts"), 5u);
  EXPECT_EQ(stats_->Value("dma.inv_fallback_flushes"), 1u);
  EXPECT_TRUE(iommu_->Translate(iova, 1'000'000).fault);
  EXPECT_EQ(oracle_->total_violations(), 0u);
}

TEST_F(FaultedDriverTest, DropBudgetOneShortOfRetriesAvoidsFallback) {
  // One fewer drop: the final retry is delivered, so the fallback must NOT
  // engage — the boundary neighbour of the previous test.
  FaultPlan plan;
  FaultSpec drop = Spec(FaultKind::kInvalidationDrop);
  drop.op_end = 4;
  plan.Add(drop);
  Build(ProtectionMode::kFastSafe, plan);

  const auto result = dma_->MapPages(0, Frames(4));
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(stats_->Value("iommu.inv_dropped"), 4u);
  EXPECT_EQ(stats_->Value("dma.inv_retries"), 4u);
  EXPECT_EQ(stats_->Value("dma.inv_fallback_flushes"), 0u);
  EXPECT_TRUE(iommu_->Translate(iova, 1'000'000).fault);
  EXPECT_EQ(oracle_->total_violations(), 0u);
}

TEST_F(FaultedDriverTest, FallbackGlobalFlushCanStallButStillCompletes) {
  // The fallback InvalidateAll is one invalidation-queue request like any
  // other: it can stall (kInvalidationStall) but is never dropped, so the
  // unmap completes late yet safe.
  FaultPlan plan;
  plan.Add(Spec(FaultKind::kInvalidationDrop));  // every targeted request lost
  FaultSpec stall = Spec(FaultKind::kInvalidationStall);
  stall.magnitude_ns = 300'000;
  plan.Add(stall);
  Build(ProtectionMode::kFastSafe, plan);

  const auto result = dma_->MapPages(0, Frames(4));
  const Iova iova = result.mappings[0].iova;
  iommu_->Translate(iova, 100);
  const auto unmap = dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(stats_->Value("dma.inv_fallback_flushes"), 1u);
  EXPECT_GE(stats_->Value("iommu.inv_stall_ns"), 300'000u);
  EXPECT_GE(unmap.hw_done, 300'000u);
  EXPECT_TRUE(iommu_->Translate(iova, unmap.hw_done + 1'000'000).fault);
  EXPECT_EQ(oracle_->total_violations(), 0u);
}

TEST_F(FaultedDriverTest, SameSeedRetryLaddersAreByteIdentical) {
  // The probabilistic drop plan drives the retry ladder through different
  // depths per round; two same-seed stacks must agree on every counter.
  auto run = [this]() {
    FaultPlan plan;
    plan.seed = 11;
    FaultSpec drop = Spec(FaultKind::kInvalidationDrop);
    drop.probability = 0.5;
    plan.Add(drop);
    Build(ProtectionMode::kFastSafe, plan);
    TimeNs now = 0;
    for (int round = 0; round < 20; ++round) {
      const auto result = dma_->MapPages(0, Frames(4));
      iommu_->Translate(result.mappings[0].iova, now + 100);
      dma_->UnmapDescriptor(0, result.mappings, now + 500);
      now += 10'000;
    }
    return std::vector<std::uint64_t>{
        stats_->Value("dma.inv_retries"), stats_->Value("dma.inv_timeouts"),
        stats_->Value("dma.inv_fallback_flushes"), stats_->Value("iommu.inv_dropped"),
        oracle_->total_violations()};
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first[0], 0u);  // the ladder actually engaged
}

TEST_F(FaultedDriverTest, StrictDoubleUnmapIsDetectedAndMasked) {
  Build(ProtectionMode::kFastSafe, FaultPlan{});
  const auto result = dma_->MapPages(0, Frames(64));
  ASSERT_EQ(result.mappings.size(), 64u);
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  const std::uint64_t live_after_first = iova_->live_allocations();
  const std::uint64_t inv_after_first = stats_->Value("dma.inv_requests");

  // Duplicate completion: the same descriptor is unmapped again.
  dma_->UnmapDescriptor(0, result.mappings, 2'000);
  EXPECT_EQ(stats_->Value("dma.double_unmap"), 1u);
  ASSERT_EQ(registry_->failure_count(), 1u);
  EXPECT_EQ(registry_->failures()[0].name, "dma.double_unmap");
  // Masked: no second IOVA free, no extra invalidation, books still sane.
  EXPECT_EQ(iova_->live_allocations(), live_after_first);
  EXPECT_EQ(stats_->Value("dma.inv_requests"), inv_after_first);
  std::string detail;
  EXPECT_TRUE(dma_->CheckChunkAccounting(&detail)) << detail;
  EXPECT_TRUE(page_table_->CheckConsistency(&detail)) << detail;
}

TEST_F(FaultedDriverTest, DeferredDoubleUnmapIsDetectedAndMasked) {
  Build(ProtectionMode::kDeferred, FaultPlan{});
  const auto result = dma_->MapPages(0, Frames(4));
  dma_->UnmapDescriptor(0, result.mappings, 1'000);
  EXPECT_EQ(dma_->deferred_pending(), 4u);
  dma_->UnmapDescriptor(0, result.mappings, 2'000);
  EXPECT_EQ(stats_->Value("dma.double_unmap"), 4u);  // one per page
  // Masked: the IOVAs are not queued for freeing a second time.
  EXPECT_EQ(dma_->deferred_pending(), 4u);
}

TEST_F(FaultedDriverTest, IovaExhaustionIsMaskedByRetry) {
  FaultPlan plan;
  FaultSpec fail = Spec(FaultKind::kIovaExhaustion);
  fail.max_fires = 3;
  plan.Add(fail);
  Build(ProtectionMode::kFastSafe, plan);

  const auto result = dma_->MapPages(0, Frames(64));
  EXPECT_EQ(result.mappings.size(), 64u);  // the 4th attempt succeeded
  EXPECT_EQ(stats_->Value("dma.fault_masked"), 1u);
  EXPECT_EQ(stats_->Value("dma.alloc_failures"), 0u);
  dma_->UnmapDescriptor(0, result.mappings, 10'000);
}

TEST_F(FaultedDriverTest, IovaExhaustionBeyondRetriesDegradesGracefully) {
  FaultPlan plan;
  plan.Add(Spec(FaultKind::kIovaExhaustion));  // every allocation fails
  Build(ProtectionMode::kFastSafe, plan);

  // The map fails by design, so there is nothing to unmap.
  // fsio-lint: allow(dma-pairing)
  const auto result = dma_->MapPages(0, Frames(64));
  EXPECT_TRUE(result.mappings.empty());
  EXPECT_EQ(stats_->Value("dma.alloc_failures"), 1u);
  EXPECT_EQ(page_table_->mapped_pages(), 0u);
}

TEST(FrameAllocatorFaultTest, InjectedFailureReturnsNullFrameOnce) {
  FaultPlan plan;
  FaultSpec fail;
  fail.kind = FaultKind::kFrameAllocFailure;
  fail.max_fires = 1;
  plan.Add(fail);
  FaultInjector injector(plan);
  FrameAllocator frames;
  frames.SetFaultInjector(&injector);

  EXPECT_EQ(frames.AllocFrame(), kNullFrame);
  EXPECT_EQ(frames.allocated(), 0u);  // failed attempt is not counted
  const PhysAddr ok = frames.AllocFrame();
  EXPECT_NE(ok, kNullFrame);
  EXPECT_EQ(frames.allocated(), 1u);
}

// NIC completion-path fixture: a minimal Rx datapath (no IOMMU) driving
// RetireIfComplete through real wire arrivals.
class NicFaultTest : public ::testing::Test {
 protected:
  void Build(const FaultPlan& plan) {
    stats_ = std::make_unique<StatsRegistry>();
    injector_ = std::make_unique<FaultInjector>(plan, stats_.get());
    memory_ = std::make_unique<MemorySystem>(MemoryConfig{}, stats_.get());
    rc_ = std::make_unique<RootComplex>(PcieConfig{}, nullptr, memory_.get(), stats_.get());
    NicConfig config;
    config.model_descriptor_fetch = false;
    nic_ = std::make_unique<Nic>(config, 1, &ev_, rc_.get(), stats_.get());
    nic_->SetFaultInjector(injector_.get());
    nic_->SetDescComplete([this](std::uint32_t, std::vector<DmaMapping> mappings) {
      completions_.push_back(ev_.now());
      completion_mappings_.push_back(std::move(mappings));
    });
  }

  // Posts kDesc and delivers one packet that consumes all of its pages.
  // Returns the sim-time at which the packet was handed to the NIC.
  TimeNs RunOnePacket() {
    const TimeNs start = ev_.now();
    nic_->PostRxDescriptor(0, kDesc);
    Packet packet;
    packet.payload = static_cast<std::uint32_t>(kDesc.size() * kPageSize) - kHeaderBytes;
    nic_->OnWireArrival(packet);
    ev_.RunAll();
    return start;
  }

  // A three-page descriptor; every field differs per page.
  const std::vector<DmaMapping> kDesc = {DmaMapping{0x10000, 0x70000, 5},
                                         DmaMapping{0x11000, 0x93000, 5},
                                         DmaMapping{0x12000, 0x81000, 5}};

  EventQueue ev_;
  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<RootComplex> rc_;
  std::unique_ptr<Nic> nic_;
  std::vector<TimeNs> completions_;
  std::vector<std::vector<DmaMapping>> completion_mappings_;
};

TEST_F(NicFaultTest, DuplicateCompletionIsDeliveredTwice) {
  FaultPlan plan;
  FaultSpec dup;
  dup.kind = FaultKind::kDescCompletionDuplicate;
  dup.max_fires = 1;
  plan.Add(dup);
  Build(plan);
  RunOnePacket();
  EXPECT_EQ(completions_.size(), 2u);
  EXPECT_EQ(stats_->Value("nic.completion_duplicates"), 1u);
  // The retired descriptor's vector moves into one completion; the
  // duplicate carries its own copy. Both name the posted pages.
  ASSERT_EQ(completion_mappings_.size(), 2u);
  EXPECT_EQ(completion_mappings_[0], kDesc);
  EXPECT_EQ(completion_mappings_[1], kDesc);
}

TEST_F(NicFaultTest, ReorderDelaysTheCompletion) {
  FaultPlan plan;
  FaultSpec reorder;
  reorder.kind = FaultKind::kDescCompletionReorder;
  reorder.magnitude_ns = 50'000;
  reorder.max_fires = 1;
  plan.Add(reorder);
  Build(plan);
  TimeNs start = RunOnePacket();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_GE(completions_[0], start + 50'000u);
  EXPECT_EQ(stats_->Value("nic.completion_reorders"), 1u);
  // The delayed completion still carries the posted pages, although the
  // descriptor itself was popped from the ring long before it fired.
  ASSERT_EQ(completion_mappings_.size(), 1u);
  EXPECT_EQ(completion_mappings_[0], kDesc);

  // Without the fault budget, the next completion is prompt.
  completions_.clear();
  completion_mappings_.clear();
  start = RunOnePacket();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_LT(completions_[0], start + 50'000u);
  ASSERT_EQ(completion_mappings_.size(), 1u);
  EXPECT_EQ(completion_mappings_[0], kDesc);
}

TEST(RootComplexFaultTest, BackpressureBurstStallsAdmission) {
  StatsRegistry stats;
  FaultPlan plan;
  FaultSpec bp;
  bp.kind = FaultKind::kRootComplexBackpressure;
  bp.magnitude_ns = 10'000;
  bp.max_fires = 1;
  plan.Add(bp);
  FaultInjector injector(plan, &stats);
  MemorySystem memory(MemoryConfig{}, &stats);
  RootComplex rc(PcieConfig{}, nullptr, &memory, &stats);
  rc.SetFaultInjector(&injector);

  const DmaTiming hit = rc.DmaWrite(0, {DmaSegment{0x1000, 256}});
  EXPECT_GE(hit.link_done, 10'000u);
  EXPECT_EQ(stats.Value("pcie.backpressure_bursts"), 1u);
}

}  // namespace
}  // namespace fsio

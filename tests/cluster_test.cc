// Tests for the N-host Cluster topology layer: the two-host Testbed,
// multi-host incast, multi-switch routing, per-host protection modes, and
// cluster-scale fault domains (switch failure, host crash–recovery with the
// DMA quiesce protocol, peer death).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/apps/incast.h"
#include "src/core/cluster.h"
#include "src/core/cluster_faults.h"
#include "src/core/testbed.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"

namespace fsio {
namespace {

constexpr TimeNs kWarmup = 5 * kNsPerMs;
constexpr TimeNs kWindow = 10 * kNsPerMs;

TEST(ClusterTest, TwoHostClusterMatchesTestbedExactly) {
  // A Testbed is a Cluster with the default two-host config; built as a
  // plain Cluster and driven through the Cluster calls, the same setup must
  // give the same results down to the raw counters.
  TestbedConfig tb_config;
  tb_config.mode = ProtectionMode::kStrict;
  tb_config.cores = 5;
  Testbed testbed(tb_config);
  testbed.AddBulkFlows(0, 1, 5);
  const WindowResult via_testbed = testbed.RunWindow(kWarmup, kWindow);

  ClusterConfig config;
  config.num_hosts = 2;
  config.mode = ProtectionMode::kStrict;
  config.cores = 5;
  Cluster cluster(config);
  cluster.AddBulkFlows(0, 1, 5);
  cluster.RunUntil(kWarmup);
  const WindowResult via_cluster = cluster.MeasureWindow(1, kWindow);

  EXPECT_EQ(via_testbed.raw_rx_host, via_cluster.raw_rx_host);
  EXPECT_DOUBLE_EQ(via_testbed.goodput_gbps, via_cluster.goodput_gbps);
  EXPECT_DOUBLE_EQ(via_testbed.cpu_utilization, via_cluster.cpu_utilization);
}

TEST(ClusterTest, IncastReportsPerHostWindows) {
  // 4 senders -> host 0 through the Cluster API, per-host WindowResults.
  ClusterConfig config;
  config.num_hosts = 5;
  config.mode = ProtectionMode::kFastSafe;
  config.cores = 5;
  Cluster cluster(config);
  StartIncast(&cluster, /*dst_host=*/0);
  cluster.RunUntil(kWarmup);
  const std::vector<WindowResult> results = cluster.MeasureWindowAll(kWindow);

  ASSERT_EQ(results.size(), 5u);
  EXPECT_GT(results[0].goodput_gbps, 50.0);  // fan-in sink receives the link
  EXPECT_EQ(results[0].safety_violations, 0u);
  for (std::uint32_t h = 1; h < 5; ++h) {
    EXPECT_EQ(results[h].goodput_gbps, 0.0) << "sender " << h << " receives no data";
    EXPECT_GT(results[h].raw_rx_host.at("nic.tx_bytes"), 0u)
        << "sender " << h << " transmits";
    EXPECT_GT(results[h].cpu_utilization, 0.0) << "sender " << h;
  }
}

TEST(ClusterTest, IncastFanInSaturatesAcrossModes) {
  // The receiver's goodput ordering off >= fastsafe > strict survives the
  // many-initiator DMA pattern.
  auto run = [](ProtectionMode mode) {
    ClusterConfig config;
    config.num_hosts = 5;
    config.mode = mode;
    config.cores = 5;
    Cluster cluster(config);
    StartIncast(&cluster, 0);
    cluster.RunUntil(kWarmup);
    return cluster.MeasureWindow(0, kWindow);
  };
  const WindowResult off = run(ProtectionMode::kOff);
  const WindowResult strict = run(ProtectionMode::kStrict);
  const WindowResult fs = run(ProtectionMode::kFastSafe);
  EXPECT_GT(off.goodput_gbps, 90.0);
  EXPECT_LT(strict.goodput_gbps, off.goodput_gbps * 0.9);
  EXPECT_GT(fs.goodput_gbps, off.goodput_gbps * 0.95);
}

TEST(ClusterTest, MultiSwitchRoutesAcrossUplinks) {
  // hosts 0,2 -> switch0; hosts 1,3 -> switch1. A 0->3 flow crosses the
  // uplink, so both leaves forward traffic and data still arrives intact.
  ClusterConfig config;
  config.num_hosts = 4;
  config.num_switches = 2;
  config.mode = ProtectionMode::kOff;
  config.cores = 5;
  Cluster cluster(config);
  DctcpSender* sender = cluster.AddFlow(0, 3, 0, 0);
  sender->EnqueueAppBytes(4 << 20);
  cluster.RunUntil(60 * kNsPerMs);

  EXPECT_EQ(sender->bytes_acked(), 4u << 20);
  EXPECT_EQ(cluster.host(3).app_bytes_delivered(), 4u << 20);
  const auto fabric = cluster.switch_stats().Snapshot();
  EXPECT_GT(fabric.at("switch0.forwarded"), 0u);
  EXPECT_GT(fabric.at("switch1.forwarded"), 0u);
}

TEST(ClusterTest, SameSwitchTrafficStaysLocal) {
  // 0 -> 2 stays on switch0; switch1 never forwards a packet.
  ClusterConfig config;
  config.num_hosts = 4;
  config.num_switches = 2;
  config.mode = ProtectionMode::kOff;
  config.cores = 5;
  Cluster cluster(config);
  DctcpSender* sender = cluster.AddFlow(0, 2, 0, 0);
  sender->EnqueueAppBytes(1 << 20);
  cluster.RunUntil(30 * kNsPerMs);

  EXPECT_EQ(cluster.host(2).app_bytes_delivered(), 1u << 20);
  const auto fabric = cluster.switch_stats().Snapshot();
  EXPECT_GT(fabric.at("switch0.forwarded"), 0u);
  EXPECT_EQ(fabric.at("switch1.forwarded"), 0u);
}

TEST(ClusterTest, PerHostModeOverrides) {
  ClusterConfig config;
  config.num_hosts = 3;
  config.mode = ProtectionMode::kStrict;
  config.host_modes[0] = ProtectionMode::kOff;
  config.host_modes[2] = ProtectionMode::kFastSafe;
  Cluster cluster(config);
  EXPECT_EQ(cluster.host(0).iommu(), nullptr);
  EXPECT_EQ(cluster.host(0).config().mode, ProtectionMode::kOff);
  EXPECT_EQ(cluster.host(1).config().mode, ProtectionMode::kStrict);
  EXPECT_NE(cluster.host(1).iommu(), nullptr);
  EXPECT_EQ(cluster.host(2).config().mode, ProtectionMode::kFastSafe);
  EXPECT_NE(cluster.host(2).iommu(), nullptr);
}

TEST(ClusterTest, SteadyStateSchedulerIsAllocationFree) {
  // The cluster reserves event-arena capacity up front and recycles records
  // across measurement windows: after warm-up, evq.allocations (arena chunk
  // growth + boxed-closure fallbacks, exported each window from the
  // dedicated scheduler registry) must stay flat window over window.
  ClusterConfig config;
  config.num_hosts = 3;
  config.mode = ProtectionMode::kFastSafe;
  config.cores = 2;
  Cluster cluster(config);
  StartIncast(&cluster, /*dst_host=*/0);
  cluster.RunUntil(kWarmup);
  cluster.MeasureWindowAll(kWindow);
  const std::uint64_t after_first = cluster.evq_stats().Value("evq.allocations");
  EXPECT_GT(cluster.evq_stats().Value("evq.arena_capacity"), 0u);
  for (int window = 0; window < 3; ++window) {
    cluster.MeasureWindowAll(kWindow);
    EXPECT_EQ(cluster.evq_stats().Value("evq.allocations"), after_first)
        << "scheduler allocated in steady-state window " << window;
  }
  EXPECT_GT(cluster.evq_stats().Value("evq.executed"), 0u);
}

TEST(ClusterTest, HostIdsAreAssigned) {
  ClusterConfig config;
  config.num_hosts = 4;
  Cluster cluster(config);
  for (std::uint32_t h = 0; h < 4; ++h) {
    EXPECT_EQ(cluster.host(h).config().host_id, h);
  }
}

// Shared fixture shape for the fault-domain tests: a 4-host / 2-switch
// cluster with a 3→1 incast and the safety harness enabled.
Cluster MakeFaultCluster(ProtectionMode mode, bool skip_recovery_invalidation = false,
                         std::uint32_t abort_after_timeouts = 0) {
  ClusterConfig config;
  config.num_hosts = 4;
  config.num_switches = 2;
  config.cores = 2;
  config.ring_size_pkts = 128;
  config.mode = mode;
  config.host.skip_recovery_invalidation = skip_recovery_invalidation;
  config.dctcp.abort_after_timeouts = abort_after_timeouts;
  return Cluster(config);
}

void StartFaultIncast(Cluster* cluster) {
  for (std::uint32_t src = 1; src < cluster->num_hosts(); ++src) {
    cluster->AddBulkFlows(src, /*dst_host=*/0, cluster->config().cores);
  }
}

TEST(ClusterFaultTest, HostCrashRecoveryIsSafeAndResumesDelivery) {
  for (ProtectionMode mode :
       {ProtectionMode::kStrict, ProtectionMode::kFastSafe, ProtectionMode::kDeferred}) {
    Cluster cluster = MakeFaultCluster(mode);
    cluster.EnableFaultHarness();
    ClusterFaultController controller(&cluster, /*seed=*/1);
    ClusterFaultEvent crash;
    crash.kind = FaultKind::kHostCrash;
    crash.at = 2 * kNsPerMs;
    crash.duration_ns = 1 * kNsPerMs;  // recovery starts at 3 ms
    crash.host = 0;
    controller.Add(crash);
    controller.Arm();
    StartFaultIncast(&cluster);

    cluster.RunUntil(4 * kNsPerMs);  // recovery done, rings re-registered
    const std::uint64_t mark = cluster.host(0).app_bytes_delivered();
    cluster.RunUntil(6 * kNsPerMs);

    StatsRegistry& h0 = cluster.host(0).stats();
    EXPECT_EQ(h0.Value("host.crashes"), 1u) << ProtectionModeName(mode);
    EXPECT_EQ(h0.Value("host.recoveries"), 1u) << ProtectionModeName(mode);
    EXPECT_GT(cluster.host(0).app_bytes_delivered(), mark)
        << ProtectionModeName(mode) << ": incast must resume after recovery";
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
      EXPECT_EQ(cluster.oracle(h)->total_violations(), 0u)
          << ProtectionModeName(mode) << " host " << h << "\n"
          << cluster.oracle(h)->TraceString();
      EXPECT_EQ(cluster.invariants(h)->CheckAll(cluster.ev().now()), 0u)
          << ProtectionModeName(mode) << " host " << h;
      EXPECT_EQ(cluster.host(h).stats().Value("nic.dma_while_quiesced"), 0u)
          << ProtectionModeName(mode) << " host " << h;
    }
  }
}

TEST(ClusterFaultTest, SkippedRecoveryInvalidationIsCaughtByOracle) {
  // The intentional bug: recovery rebuilds the page table and reclaims
  // frames but "forgets" the global IOTLB invalidation. Whether a stale
  // cached entry actually aliases a post-recovery mapping depends on which
  // descriptors were in flight at crash time, so sweep a few crash times —
  // the oracle must catch the bug at at least one (and with correct
  // recovery, HostCrashRecoveryIsSafeAndResumesDelivery holds zero at all).
  std::uint64_t caught = 0;
  for (const TimeNs crash_at :
       {2 * kNsPerMs, 5 * kNsPerMs / 2, 3 * kNsPerMs}) {
    Cluster cluster = MakeFaultCluster(ProtectionMode::kFastSafe,
                                       /*skip_recovery_invalidation=*/true);
    cluster.EnableFaultHarness();
    ClusterFaultController controller(&cluster, /*seed=*/1);
    ClusterFaultEvent crash;
    crash.kind = FaultKind::kHostCrash;
    crash.at = crash_at;
    crash.duration_ns = 1 * kNsPerMs;
    crash.host = 0;
    controller.Add(crash);
    controller.Arm();
    StartFaultIncast(&cluster);
    cluster.RunUntil(6 * kNsPerMs);

    SafetyOracle* oracle = cluster.oracle(0);
    caught += oracle->total_violations();
    // Every violation must be one of the crash-family kinds. A surviving
    // PTcache pointer into the dead stack's page table is a walk into a
    // reclaimed table page: the rebuilt table never reuses its page ids.
    EXPECT_EQ(oracle->count(SafetyViolationKind::kStaleDmaTranslation) +
                  oracle->count(SafetyViolationKind::kDmaToReclaimedFrame) +
                  oracle->count(SafetyViolationKind::kUseAfterUnmap) +
                  oracle->count(SafetyViolationKind::kReclaimedTableWalk),
              oracle->total_violations())
        << "crash_at=" << crash_at;
  }
  EXPECT_GT(caught, 0u) << "skipped invalidation was never detected";
}

TEST(ClusterFaultTest, PeerDeathAbortsFlowsViaRtoCeiling) {
  // Host 0 dies and never recovers; every sender must hit the consecutive-
  // timeout ceiling (3 RTOs: ~1+2+4 ms after the crash) and abort instead
  // of retransmitting forever.
  Cluster cluster = MakeFaultCluster(ProtectionMode::kFastSafe,
                                     /*skip_recovery_invalidation=*/false,
                                     /*abort_after_timeouts=*/3);
  cluster.EnableFaultHarness();
  ClusterFaultController controller(&cluster, /*seed=*/1);
  ClusterFaultEvent crash;
  crash.kind = FaultKind::kHostCrash;
  crash.at = 1 * kNsPerMs;
  crash.duration_ns = 0;  // never recover
  crash.host = 0;
  controller.Add(crash);
  controller.Arm();
  StartFaultIncast(&cluster);
  cluster.RunUntil(10 * kNsPerMs);

  std::uint64_t aborts = 0;
  for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
    aborts += cluster.host(h).stats().Value("dctcp.flow_aborts");
    EXPECT_EQ(cluster.oracle(h)->total_violations(), 0u) << "host " << h;
  }
  EXPECT_EQ(aborts, 6u);  // 3 senders x 2 cores
  EXPECT_EQ(cluster.host(0).stats().Value("host.recoveries"), 0u);
}

TEST(ClusterFaultTest, SwitchFailureBlackholesAndHeals) {
  // Leaf switch 1 (hosts 1 and 3) black-holes for 1 ms; traffic through it
  // drops, the incast survives, and no safety state is disturbed.
  Cluster cluster = MakeFaultCluster(ProtectionMode::kFastSafe);
  cluster.EnableFaultHarness();
  ClusterFaultController controller(&cluster, /*seed=*/1);
  ClusterFaultEvent fail;
  fail.kind = FaultKind::kSwitchFailure;
  fail.at = 1 * kNsPerMs;
  fail.duration_ns = 1 * kNsPerMs;
  fail.switch_id = 1;
  controller.Add(fail);
  controller.Arm();
  StartFaultIncast(&cluster);
  cluster.RunUntil(4 * kNsPerMs);

  EXPECT_GT(cluster.switch_stats().Value("switch1.switch_down_drops"), 0u);
  EXPECT_EQ(cluster.switch_stats().Value("switch0.switch_down_drops"), 0u);
  EXPECT_GT(cluster.host(0).app_bytes_delivered(), 0u);
  for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
    EXPECT_EQ(cluster.oracle(h)->total_violations(), 0u) << "host " << h;
  }
}

}  // namespace
}  // namespace fsio

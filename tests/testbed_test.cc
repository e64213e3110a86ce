// Integration tests over the full two-host testbed: end-to-end correctness
// of the datapath, the paper's headline comparisons, and safety invariants
// under live traffic.
#include <gtest/gtest.h>

#include "src/apps/iperf.h"
#include "src/core/testbed.h"
#include "tests/test_util.h"

namespace fsio {
namespace {

WindowResult QuickIperf(ProtectionMode mode, std::uint32_t flows,
                        TimeNs warmup = 10 * kNsPerMs, TimeNs window = 15 * kNsPerMs) {
  TestbedConfig config;
  config.mode = mode;
  config.cores = 5;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, flows);
  return testbed.RunWindow(warmup, window);
}

TEST(TestbedTest, IommuOffSaturatesLink) {
  const WindowResult r = QuickIperf(ProtectionMode::kOff, 5);
  EXPECT_GT(r.goodput_gbps, 95.0);
  EXPECT_EQ(r.iotlb_miss_per_page, 0.0);
  EXPECT_EQ(r.safety_violations, 0u);
}

TEST(TestbedTest, StrictModeDegradesThroughput) {
  const WindowResult off = QuickIperf(ProtectionMode::kOff, 5);
  const WindowResult strict = QuickIperf(ProtectionMode::kStrict, 5);
  EXPECT_LT(strict.goodput_gbps, off.goodput_gbps * 0.9);
  // At least one IOTLB miss per page is fundamental in strict mode (§2.2).
  EXPECT_GE(strict.iotlb_miss_per_page, 1.0);
  EXPECT_EQ(strict.safety_violations, 0u);
}

TEST(TestbedTest, FastSafeMatchesIommuOff) {
  const WindowResult off = QuickIperf(ProtectionMode::kOff, 5);
  const WindowResult fs = QuickIperf(ProtectionMode::kFastSafe, 5);
  EXPECT_GT(fs.goodput_gbps, off.goodput_gbps * 0.97);
  EXPECT_GE(fs.iotlb_miss_per_page, 1.0);  // misses remain; their cost doesn't
  EXPECT_EQ(fs.safety_violations, 0u);
}

TEST(TestbedTest, FastSafeEliminatesPtcacheMisses) {
  const WindowResult fs = QuickIperf(ProtectionMode::kFastSafe, 5);
  EXPECT_EQ(fs.l1_miss_per_page, 0.0);
  EXPECT_EQ(fs.l2_miss_per_page, 0.0);
  EXPECT_LT(fs.l3_miss_per_page, 0.045);  // paper's bound
}

TEST(TestbedTest, StrictModeHasPtcacheMisses) {
  const WindowResult strict = QuickIperf(ProtectionMode::kStrict, 5);
  EXPECT_GT(strict.l3_miss_per_page, 0.05);
  EXPECT_GT(strict.mem_reads_per_page, strict.iotlb_miss_per_page);
}

TEST(TestbedTest, MemReadsEqualsSumOfMisses) {
  // The paper's accounting identity: reads = iotlb + m1 + m2 + m3.
  const WindowResult strict = QuickIperf(ProtectionMode::kStrict, 5);
  const double sum = strict.iotlb_miss_per_page + strict.l1_miss_per_page +
                     strict.l2_miss_per_page + strict.l3_miss_per_page;
  EXPECT_NEAR(strict.mem_reads_per_page, sum, 0.02);
}

TEST(TestbedTest, AblationOrdering) {
  // Linux <= {Linux+A, Linux+B} <= F&S in throughput (Fig. 12 shape).
  const double strict = QuickIperf(ProtectionMode::kStrict, 5).goodput_gbps;
  const double a = QuickIperf(ProtectionMode::kStrictPreserve, 5).goodput_gbps;
  const double b = QuickIperf(ProtectionMode::kStrictContig, 5).goodput_gbps;
  const double fs = QuickIperf(ProtectionMode::kFastSafe, 5).goodput_gbps;
  EXPECT_GE(fs, a - 2.0);
  EXPECT_GE(fs, b - 2.0);
  EXPECT_GE(fs, strict + 5.0);
}

TEST(TestbedTest, DeferredModeIsFastButTradesSafety) {
  const WindowResult deferred = QuickIperf(ProtectionMode::kDeferred, 5);
  const WindowResult strict = QuickIperf(ProtectionMode::kStrict, 5);
  EXPECT_GT(deferred.goodput_gbps, strict.goodput_gbps);
  // Deferred leaves windows where devices *could* use stale entries; our
  // normal datapath never exploits them, so no violations are counted here
  // (safety_demo and driver tests exercise the hazard directly).
  EXPECT_GE(deferred.goodput_gbps, 0.0);
}

TEST(TestbedTest, NoSafetyViolationsUnderSustainedLoad) {
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    TestbedConfig config;
    config.mode = mode;
    config.cores = 5;
    Testbed testbed(config);
    testbed.AddBulkFlows(0, 1, 10);
    const WindowResult r = testbed.RunWindow(5 * kNsPerMs, 25 * kNsPerMs);
    EXPECT_EQ(r.safety_violations, 0u) << ProtectionModeName(mode);
    EXPECT_EQ(r.raw_rx_host.at("iommu.faults"), 0u) << ProtectionModeName(mode);
  }
}

TEST(TestbedTest, BytesConserved) {
  // Application bytes delivered == receiver transport in-order bytes; no
  // duplication or loss escapes the transport.
  TestbedConfig config;
  config.mode = ProtectionMode::kStrict;
  config.cores = 5;
  Testbed testbed(config);
  DctcpSender* sender = testbed.AddFlow(0, 1, 0, 0);
  sender->EnqueueAppBytes(50 << 20);
  testbed.RunUntil(200 * kNsPerMs);
  EXPECT_EQ(sender->bytes_acked(), 50u << 20);
  EXPECT_EQ(testbed.receiver_host().app_bytes_delivered(), 50u << 20);
}

TEST(TestbedTest, PerHostModeOverrides) {
  TestbedConfig config;
  config.mode = ProtectionMode::kStrict;
  config.host_modes[0] = ProtectionMode::kOff;
  config.cores = 5;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 5);
  testbed.RunUntil(10 * kNsPerMs);
  EXPECT_EQ(testbed.host(0).iommu(), nullptr);
  EXPECT_NE(testbed.host(1).iommu(), nullptr);
}

TEST(TestbedTest, Host1ModeOverrideAppliesToReceiver) {
  // host_modes[1] must override the cluster default on the receive host only.
  TestbedConfig config;
  config.mode = ProtectionMode::kOff;
  config.host_modes[1] = ProtectionMode::kStrict;
  config.cores = 5;
  Testbed testbed(config);
  EXPECT_EQ(testbed.host(0).iommu(), nullptr);
  ASSERT_NE(testbed.host(1).iommu(), nullptr);
  EXPECT_EQ(testbed.host(1).config().mode, ProtectionMode::kStrict);

  // The strict receiver pays protection costs even though the sender has
  // protection off: per-page IOMMU misses show up in the measured window.
  testbed.AddBulkFlows(0, 1, 5);
  const WindowResult r = testbed.RunWindow(10 * kNsPerMs, 15 * kNsPerMs);
  EXPECT_GE(r.iotlb_miss_per_page, 1.0);
}

TEST(TestbedTest, BothHostModeOverridesTogether) {
  TestbedConfig config;
  config.mode = ProtectionMode::kStrict;
  config.host_modes[0] = ProtectionMode::kFastSafe;
  config.host_modes[1] = ProtectionMode::kOff;
  Testbed testbed(config);
  EXPECT_EQ(testbed.host(0).config().mode, ProtectionMode::kFastSafe);
  EXPECT_NE(testbed.host(0).iommu(), nullptr);
  EXPECT_EQ(testbed.host(1).config().mode, ProtectionMode::kOff);
  EXPECT_EQ(testbed.host(1).iommu(), nullptr);
}

TEST(TestbedTest, MeasureWindowOnSenderHost) {
  // Measuring host 0 (the iperf sender) must report Tx-side activity: no
  // application receive bytes, but transmitted packets (ACK receive traffic
  // keeps rx counters small but nonzero) and busy cores.
  TestbedConfig config;
  config.mode = ProtectionMode::kStrict;
  config.cores = 5;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 5);
  testbed.RunUntil(10 * kNsPerMs);
  const WindowResult sender = testbed.MeasureWindow(0, 15 * kNsPerMs);
  EXPECT_EQ(sender.goodput_gbps, 0.0);  // no app data flows toward host 0
  EXPECT_GT(sender.raw_rx_host.at("nic.tx_bytes"), 0u);
  EXPECT_GT(sender.cpu_utilization, 0.0);
  EXPECT_EQ(sender.safety_violations, 0u);
}

TEST(TestbedTest, LargerMtuUsesFewerPackets) {
  TestbedConfig config;
  config.mode = ProtectionMode::kOff;
  config.cores = 5;
  config.mtu_bytes = 9000;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 5);
  const WindowResult r = testbed.RunWindow(10 * kNsPerMs, 10 * kNsPerMs);
  EXPECT_GT(r.goodput_gbps, 95.0);
  const std::uint64_t packets = r.raw_rx_host.at("nic.rx_packets");
  const std::uint64_t bytes = r.raw_rx_host.at("nic.rx_wire_bytes");
  EXPECT_GT(bytes / (packets + 1), 8000u);
}

TEST(TestbedTest, RxTxConcurrentTrafficRuns) {
  TestbedConfig config;
  config.mode = ProtectionMode::kFastSafe;
  config.cores = 8;
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, 4);
  StartReverseIperf(&testbed, 4, config.cores, 4);
  testbed.RunUntil(20 * kNsPerMs);
  EXPECT_GT(testbed.host(0).app_bytes_delivered(), 0u);  // reverse data
  EXPECT_GT(testbed.host(1).app_bytes_delivered(), 0u);  // forward data
}

TEST(TestbedTest, StrictMissesGrowWithFlows) {
  const WindowResult f5 = QuickIperf(ProtectionMode::kStrict, 5);
  const WindowResult f40 = QuickIperf(ProtectionMode::kStrict, 40);
  EXPECT_GT(f40.mem_reads_per_page, f5.mem_reads_per_page);
  EXPECT_GT(f40.tx_packets_per_page, f5.tx_packets_per_page);
}

TEST(TestbedTest, FastSafeInsensitiveToRingSize) {
  TestbedConfig small;
  small.mode = ProtectionMode::kFastSafe;
  small.cores = 5;
  small.ring_size_pkts = 256;
  Testbed tb_small(small);
  tb_small.AddBulkFlows(0, 1, 5);
  const WindowResult r_small = tb_small.RunWindow(10 * kNsPerMs, 15 * kNsPerMs);

  TestbedConfig big = small;
  big.ring_size_pkts = 2048;
  Testbed tb_big(big);
  tb_big.AddBulkFlows(0, 1, 5);
  const WindowResult r_big = tb_big.RunWindow(10 * kNsPerMs, 15 * kNsPerMs);

  EXPECT_LT(r_big.l3_miss_per_page, 0.053);  // the paper's Fig. 8 bound
  EXPECT_GT(r_big.goodput_gbps, r_small.goodput_gbps * 0.9);
}

}  // namespace
}  // namespace fsio

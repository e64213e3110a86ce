// The bench runner's sweep-point memo (bench/figure_common.h): every field
// of the input, nested ones included, is part of the key; equal inputs are
// one simulation, also when asked for concurrently; and a memoized result is
// the result of simulating the point afresh.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bench/figure_common.h"
#include "src/apps/redis.h"

namespace fsio::bench {
namespace {

constexpr TimeNs kWarmup = 1 * kNsPerMs;
constexpr TimeNs kWindow = 2 * kNsPerMs;

// The memo is process-wide, so each test uses its own flow count and
// measures count deltas.
TestbedConfig SmallConfig() {
  TestbedConfig config;
  config.mode = ProtectionMode::kStrict;
  config.cores = 2;
  return config;
}

MemoCounts Delta(const MemoCounts& before, const MemoCounts& after) {
  return {after.lookups - before.lookups, after.simulated - before.simulated};
}

void ExpectSameWindow(const WindowResult& a, const WindowResult& b) {
  EXPECT_EQ(a.goodput_gbps, b.goodput_gbps);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.iotlb_miss_per_page, b.iotlb_miss_per_page);
  EXPECT_EQ(a.l1_miss_per_page, b.l1_miss_per_page);
  EXPECT_EQ(a.l2_miss_per_page, b.l2_miss_per_page);
  EXPECT_EQ(a.l3_miss_per_page, b.l3_miss_per_page);
  EXPECT_EQ(a.mem_reads_per_page, b.mem_reads_per_page);
  EXPECT_EQ(a.tx_packets_per_page, b.tx_packets_per_page);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  EXPECT_EQ(a.pages_of_data, b.pages_of_data);
  EXPECT_EQ(a.safety_violations, b.safety_violations);
  EXPECT_EQ(a.raw_rx_host, b.raw_rx_host);
}

TEST(BenchMemo, ConfigsDifferingInANestedFieldAreTwoSimulations) {
  const TestbedConfig base = SmallConfig();
  TestbedConfig walkers = base;
  walkers.host.iommu.num_walkers = 2;
  TestbedConfig pages = base;
  pages.host.pages_per_desc = 8;

  const MemoCounts before = IperfMemo().counts();
  RunIperf({base, 1, kWarmup, kWindow});
  RunIperf({walkers, 1, kWarmup, kWindow});
  RunIperf({pages, 1, kWarmup, kWindow});
  const MemoCounts delta = Delta(before, IperfMemo().counts());
  EXPECT_EQ(delta.lookups, 3u);
  EXPECT_EQ(delta.simulated, 3u);
}

TEST(BenchMemo, EqualConfigsAreOneSimulation) {
  TestbedConfig first = SmallConfig();
  TestbedConfig second;
  second.cores = 2;  // built apart, equal field for field
  ASSERT_EQ(first, second);

  const MemoCounts before = IperfMemo().counts();
  RunIperf({first, 2, kWarmup, kWindow});
  RunIperf({second, 2, kWarmup, kWindow});
  const MemoCounts delta = Delta(before, IperfMemo().counts());
  EXPECT_EQ(delta.lookups, 2u);
  EXPECT_EQ(delta.simulated, 1u);
}

TEST(BenchMemo, CachedResultEqualsUncached) {
  const TestbedConfig config = SmallConfig();
  RunIperf({config, 3, kWarmup, kWindow});
  const MemoCounts before = IperfMemo().counts();
  const IperfRun cached = RunIperf({config, 3, kWarmup, kWindow});
  EXPECT_EQ(Delta(before, IperfMemo().counts()).simulated, 0u);

  const IperfRun fresh = SimulateIperf(IperfPoint{config, 3, kWarmup, kWindow});
  ExpectSameWindow(cached.window, fresh.window);
  EXPECT_EQ(cached.locality_p50, fresh.locality_p50);
  EXPECT_EQ(cached.locality_p99, fresh.locality_p99);
}

TEST(BenchMemo, CachedAppsResultEqualsUncached) {
  TestbedConfig config = SmallConfig();
  config.mtu_bytes = 9000;
  const RequestResponseConfig app = RedisSetConfig(8 * 1024);
  RunApps({config, app, 2, kWarmup, kWindow});
  const MemoCounts before = AppsMemo().counts();
  const AppsRun cached = RunApps({config, app, 2, kWarmup, kWindow});
  EXPECT_EQ(Delta(before, AppsMemo().counts()).simulated, 0u);

  const AppsRun fresh = SimulateApps(AppsPoint{config, app, 2, kWarmup, kWindow});
  EXPECT_EQ(cached.request_gbps, fresh.request_gbps);
  EXPECT_EQ(cached.response_gbps, fresh.response_gbps);
  EXPECT_EQ(cached.ops_per_s, fresh.ops_per_s);
  ExpectSameWindow(cached.window, fresh.window);
}

TEST(BenchMemo, ConcurrentLookupsOfOnePointSimulateOnce) {
  const TestbedConfig config = SmallConfig();
  const MemoCounts before = IperfMemo().counts();
  const std::vector<IperfRun> runs = SweepRunner(4).Map<IperfRun>(
      8, [&](std::size_t) { return RunIperf({config, 4, kWarmup, kWindow}); });
  const MemoCounts delta = Delta(before, IperfMemo().counts());
  EXPECT_EQ(delta.lookups, 8u);
  EXPECT_EQ(delta.simulated, 1u);
  for (const IperfRun& run : runs) {
    ExpectSameWindow(run.window, runs[0].window);
  }
}

}  // namespace
}  // namespace fsio::bench

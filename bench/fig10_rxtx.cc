// Figure 10: concurrent Rx AND Tx data traffic (extreme Rx/Tx interference).
//
// Both hosts simultaneously send and receive bulk data, one flow per core
// per direction, cores per direction in {1, 2, 3, 4}. Paper results (Icelake
// testbed): with IOMMU strict, Rx throughput degrades up to ~80% even at 4
// flows; Tx degrades less (reads tolerate latency); F&S matches IOMMU-off.
#include <map>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/apps/iperf.h"

int main() {
  using namespace fsio;

  struct Point {
    ProtectionMode mode;
    std::uint32_t dir_cores;
  };
  std::vector<Point> points;
  for (ProtectionMode mode : bench::WithCapability(
           {ProtectionMode::kOff, ProtectionMode::kStrict, ProtectionMode::kFastSafe})) {
    for (std::uint32_t dir_cores : bench::Sweep({1u, 2u, 3u, 4u})) {
      points.push_back(Point{mode, dir_cores});
    }
  }

  struct Row {
    double rx_gbps = 0;
    double tx_gbps = 0;
    double reads = 0;
    double drop_pct = 0;
  };
  const auto rows = bench::ParallelSweep<Row>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 8;  // larger-core-count server (Icelake-style)
    Testbed testbed(config);
    // Forward direction (host0 -> host1) on cores [0, dir_cores).
    testbed.AddBulkFlows(0, 1, points[i].dir_cores);
    // Reverse direction (host1 -> host0) on cores [4, 4 + dir_cores).
    StartReverseIperf(&testbed, points[i].dir_cores, config.cores, /*core_offset=*/4);

    testbed.RunUntil(bench::WarmupNs());
    // Rx throughput measured at host 1; Tx throughput = host 0's receive
    // direction is the reverse traffic, measured at host 0.
    const auto h1_before = testbed.host(1).stats().Snapshot();
    const auto h0_before = testbed.host(0).stats().Snapshot();
    testbed.RunUntil(testbed.ev().now() + bench::WindowNs());
    auto delta_bytes = [](const std::map<std::string, std::uint64_t>& before,
                          const std::map<std::string, std::uint64_t>& after) {
      auto d = StatsRegistry::Delta(before, after);
      return d["host.app_rx_bytes"];
    };
    const auto h1_after = testbed.host(1).stats().Snapshot();
    const auto h0_after = testbed.host(0).stats().Snapshot();
    Row row;
    row.rx_gbps = static_cast<double>(delta_bytes(h1_before, h1_after)) * 8.0 /
                  static_cast<double>(bench::WindowNs());
    row.tx_gbps = static_cast<double>(delta_bytes(h0_before, h0_after)) * 8.0 /
                  static_cast<double>(bench::WindowNs());
    auto d1 = StatsRegistry::Delta(h1_before, h1_after);
    const double pages = static_cast<double>(d1["nic.rx_wire_bytes"] / kPageSize);
    row.reads = pages > 0 ? static_cast<double>(d1["iommu.mem_reads"]) / pages : 0.0;
    const std::uint64_t drops = d1["nic.drops_buffer"] + d1["nic.drops_nodesc"];
    const std::uint64_t arrived = d1["nic.rx_packets"] + drops;
    row.drop_pct =
        arrived > 0 ? 100.0 * static_cast<double>(drops) / static_cast<double>(arrived) : 0.0;
    return row;
  });

  Table table({"mode", "cores/dir", "rx_gbps", "tx_gbps", "rx_reads/pg", "rx_drop_%"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(std::to_string(points[i].dir_cores));
    table.AddNumber(rows[i].rx_gbps, 1);
    table.AddNumber(rows[i].tx_gbps, 1);
    table.AddNumber(rows[i].reads, 2);
    table.AddNumber(rows[i].drop_pct, 2);
  }
  bench::EmitFigure(
      "Figure 10: concurrent Rx+Tx data traffic (Rx/Tx interference)\n"
      "(expected: strict Rx collapses hardest; F&S ~ iommu-off; Tx degrades less)\n\n",
      table);
  return 0;
}

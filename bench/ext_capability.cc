// Extension: kernel-bypass capability protection vs the IOMMU designs.
//
// kCapability turns the IOMMU off and gates every descriptor at the NIC with
// a capability-table check instead: map grants, unmap revokes (quiescing
// in-flight descriptors), and a revoked buffer fails the check in the same
// op window — the strict safety property without per-page walks or
// invalidation waits. The interesting question is the cost crossover: the
// IOMMU modes pay a walk-cost tax per IOTLB miss (calibrated lm ~ 197 ns),
// the capability design pays a flat check cost per descriptor page.
//
// The sweep runs the colocated iperf + netperf-RPC shape (Fig. 9) for
// kCapability across a range of per-page check costs, next to the kOff /
// kStrict / kFastSafe baselines, and reports throughput, the RPC p99 tail,
// and the end-to-end oracle verdict (violations must be zero everywhere:
// kOff is unsafe by construction but no stale use can be *observed* without
// an IOMMU; the three protected rows assert their guarantee end to end).
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/apps/rpc.h"
#include "src/stats/histogram.h"

int main() {
  using namespace fsio;

  struct Point {
    ProtectionMode mode;
    TimeNs check_ns;  // capability rows only; 0 = mode has no check
  };
  std::vector<Point> points;
  for (TimeNs check_ns : bench::Sweep<TimeNs>({20, 40, 80, 160, 320})) {
    points.push_back(Point{ProtectionMode::kCapability, check_ns});
  }
  for (ProtectionMode mode :
       {ProtectionMode::kOff, ProtectionMode::kStrict, ProtectionMode::kFastSafe}) {
    points.push_back(Point{mode, 0});
  }

  struct Row {
    double gbps = 0;
    double drop_pct = 0;
    double reads_per_page = 0;
    Histogram rpc_latency;
    std::uint64_t violations = 0;
  };
  const auto rows = bench::ParallelSweep<Row>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 6;  // 5 iperf + 1 RPC core
    if (points[i].check_ns > 0) {
      config.host.dma.capability.check_ns = points[i].check_ns;
    }
    Testbed testbed(config);
    testbed.cluster().EnableFaultHarness();
    testbed.AddBulkFlows(0, 1, 5);
    auto rpc = std::make_unique<RequestResponseApp>(
        &testbed, NetperfRpcConfig(/*size=*/4096, /*rpc_core=*/5));
    rpc->Start();
    testbed.RunUntil(bench::WarmupNs());
    rpc->mutable_latency().Reset();
    const WindowResult window = testbed.MeasureWindow(1, bench::WindowNs());

    Row row;
    row.gbps = window.goodput_gbps;
    row.drop_pct = window.drop_rate * 100.0;
    row.reads_per_page = window.mem_reads_per_page;
    row.rpc_latency = rpc->latency();
    row.violations = testbed.cluster().oracle(0)->total_violations() +
                     testbed.cluster().oracle(1)->total_violations();
    return row;
  });

  Table table({"mode", "check_ns", "safety", "gbps", "drop_%", "reads/pg", "rpc_p99_us",
               "violations"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Row& row = rows[i];
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(points[i].check_ns > 0 ? std::to_string(points[i].check_ns) : "-");
    table.AddCell(IsStrictlySafe(points[i].mode) ? "strict" : "none");
    table.AddNumber(row.gbps, 1);
    table.AddNumber(row.drop_pct, 2);
    table.AddNumber(row.reads_per_page, 2);
    table.AddNumber(static_cast<double>(row.rpc_latency.Percentile(99)) / 1000.0, 1);
    table.AddInteger(static_cast<long long>(row.violations));
  }
  bench::EmitFigure(
      "Extension: capability-checked kernel bypass vs IOMMU protection\n"
      "(check-cost sweep; expected: flat check cost beats per-miss walk\n"
      "costs until the check dominates the per-page budget; 0 violations)\n\n",
      table);
  return 0;
}

// Figure 9: tail latency of a latency-sensitive RPC application colocated
// with throughput-bound iperf flows.
//
// netperf-style RPCs of 128 B - 32 KB on a dedicated core, next to 5 iperf
// flows. Paper results: strict mode inflates P99/P99.9 by orders of
// magnitude (NIC queue buildup + retransmission timeouts); F&S stays within
// 1.17x of IOMMU-off (1.42x at P99.99).
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/apps/rpc.h"
#include "src/stats/histogram.h"

void fsio::bench::Fig09RpcTail() {
  const auto points =
      ModeGrid(PaperModes(), Sweep({128ull, 1024ull, 4096ull, 16384ull, 32768ull}));

  const TimeNs rpc_warmup = SmokeMode() ? 3 * kNsPerMs : 15 * kNsPerMs;
  const TimeNs rpc_window = SmokeMode() ? 5 * kNsPerMs : 80 * kNsPerMs;

  const auto merged = ParallelSweep<Histogram>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 6;  // 5 iperf + 1 RPC core
    Testbed testbed(config);
    testbed.AddBulkFlows(0, 1, 5);
    std::vector<std::unique_ptr<RequestResponseApp>> rpcs;
    for (int r = 0; r < 4; ++r) {
      rpcs.push_back(std::make_unique<RequestResponseApp>(
          &testbed, NetperfRpcConfig(points[i].x, /*rpc_core=*/5)));
    }
    for (auto& rpc : rpcs) {
      rpc->Start();
    }
    testbed.RunUntil(rpc_warmup);
    for (auto& rpc : rpcs) {
      rpc->mutable_latency().Reset();
    }
    testbed.RunUntil(testbed.ev().now() + rpc_window);

    Histogram out;
    for (auto& rpc : rpcs) {
      out.Merge(rpc->latency());
    }
    return out;
  });

  Table table({"mode", "rpc_bytes", "rpcs", "p50_us", "p90_us", "p99_us", "p99.9_us"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddInteger(static_cast<long long>(points[i].x));
    table.AddInteger(static_cast<long long>(merged[i].count()));
    table.AddNumber(static_cast<double>(merged[i].Percentile(50)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged[i].Percentile(90)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged[i].Percentile(99)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged[i].Percentile(99.9)) / 1000.0, 1);
  }
  EmitFigure(
      "Figure 9: RPC tail latency colocated with iperf\n"
      "(expected: strict inflates tails; fast-and-safe ~ iommu-off)\n\n",
      table);
}

// N→1 incast scaling over the Cluster topology layer (not in the paper's
// two-host testbed): N senders each blast one bulk flow at a single receiver,
// so the receiver's IOMMU sees concurrent DMA streams from N independent
// initiators. The question the two-host rig cannot answer: does the strict
// protection tax grow with fan-in, and does F&S still track IOMMU-off?
//
// The summary table reports the receiver's window plus the aggregate and
// min/max per-sender Tx rate (from the per-host WindowResults); the
// breakdown table prints every host of the largest fan-in point.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/apps/incast.h"

void fsio::bench::IncastScaling() {
  const std::vector<std::uint32_t> senders_axis = Sweep({1u, 3u, 7u, 15u});
  const auto points = ModeGrid(PaperModes(), senders_axis);

  // One full per-host result vector per point (index == host id; host 0 is
  // the receiver).
  const auto runs = ParallelSweep<std::vector<WindowResult>>(
      points.size(), [&](std::size_t i) {
        ClusterConfig config;
        config.num_hosts = points[i].x + 1;
        config.mode = points[i].mode;
        config.cores = 5;
        Cluster cluster(config);
        StartIncast(&cluster, /*dst_host=*/0);
        cluster.RunUntil(WarmupNs());
        return cluster.MeasureWindowAll(WindowNs());
      });

  auto tx_gbps = [](const WindowResult& r) {
    auto it = r.raw_rx_host.find("nic.tx_bytes");
    const std::uint64_t bytes = it == r.raw_rx_host.end() ? 0 : it->second;
    return static_cast<double>(bytes) * 8.0 / static_cast<double>(WindowNs());
  };

  Table table({"mode", "senders", "rx_gbps", "drop_%", "iotlb/pg", "reads/pg", "rx_cpu_%",
               "agg_tx_gbps", "min_tx", "max_tx"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::vector<WindowResult>& hosts = runs[i];
    const WindowResult& rx = hosts[0];
    double agg = 0.0;
    double min_tx = 1e30;
    double max_tx = 0.0;
    for (std::size_t h = 1; h < hosts.size(); ++h) {
      const double tx = tx_gbps(hosts[h]);
      agg += tx;
      min_tx = std::min(min_tx, tx);
      max_tx = std::max(max_tx, tx);
    }
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(std::to_string(points[i].x));
    table.AddNumber(rx.goodput_gbps, 1);
    table.AddNumber(rx.drop_rate * 100.0, 2);
    table.AddNumber(rx.iotlb_miss_per_page, 2);
    table.AddNumber(rx.mem_reads_per_page, 2);
    table.AddNumber(rx.cpu_utilization * 100.0, 1);
    table.AddNumber(agg, 1);
    table.AddNumber(min_tx, 1);
    table.AddNumber(max_tx, 1);
  }
  EmitFigure(
      "Incast scaling: N senders -> 1 receiver through the Cluster API\n"
      "(bulk flow per sender, receiver metrics are Rx-window quantities)\n\n",
      table);

  // Per-host breakdown of the largest fan-in point for each mode.
  Table breakdown({"mode", "host", "role", "rx_gbps", "tx_gbps", "cpu_%", "reads/pg"});
  const std::uint32_t largest = senders_axis.back();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].x != largest) {
      continue;
    }
    const std::vector<WindowResult>& hosts = runs[i];
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      breakdown.BeginRow();
      breakdown.AddCell(ProtectionModeName(points[i].mode));
      breakdown.AddCell(std::to_string(h));
      breakdown.AddCell(h == 0 ? "receiver" : "sender");
      breakdown.AddNumber(hosts[h].goodput_gbps, 1);
      breakdown.AddNumber(tx_gbps(hosts[h]), 1);
      breakdown.AddNumber(hosts[h].cpu_utilization * 100.0, 1);
      breakdown.AddNumber(hosts[h].mem_reads_per_page, 2);
    }
  }
  EmitFigure("\nPer-host breakdown at the largest fan-in:\n\n", breakdown);
}

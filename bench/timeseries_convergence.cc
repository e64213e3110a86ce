// Time-series view of the experiment transient: per-millisecond goodput and
// drop counts for each protection mode from a cold start. Shows DCTCP
// convergence, the strict-mode drop/backoff cycles, and that F&S reaches the
// IOMMU-off steady state within a few milliseconds — useful when choosing
// warmup windows and when eyeballing stability of the figure benches.
//
// Each mode's series must run inside one simulation, so the sweep points are
// the modes themselves; the per-millisecond samples stay sequential within a
// point.
#include <string>
#include <vector>

#include "bench/figure_common.h"

void fsio::bench::TimeseriesConvergence() {
  const std::vector<ProtectionMode> modes = PaperModes();
  const int total_ms = SmokeMode() ? 6 : 30;

  struct Sample {
    int ms = 0;
    double gbps = 0;
    long long drops = 0;
    double reads = 0;
  };
  const auto series =
      ParallelSweep<std::vector<Sample>>(modes.size(), [&](std::size_t i) {
        TestbedConfig config;
        config.mode = modes[i];
        config.cores = 5;
        Testbed testbed(config);
        testbed.AddBulkFlows(0, 1, 10);
        std::vector<Sample> out;
        for (int ms = 1; ms <= total_ms; ++ms) {
          const WindowResult r = testbed.MeasureWindow(1, 1 * kNsPerMs);
          if (ms % 2 != 0) {
            continue;  // print every other millisecond
          }
          const std::uint64_t drops = r.raw_rx_host.count("nic.drops_buffer")
                                          ? r.raw_rx_host.at("nic.drops_buffer") +
                                                r.raw_rx_host.at("nic.drops_nodesc")
                                          : 0;
          out.push_back(Sample{ms, r.goodput_gbps, static_cast<long long>(drops),
                               r.mem_reads_per_page});
        }
        return out;
      });

  Table table({"mode", "ms", "gbps", "drops", "reads/pg"});
  for (std::size_t i = 0; i < modes.size(); ++i) {
    for (const Sample& s : series[i]) {
      table.BeginRow();
      table.AddCell(ProtectionModeName(modes[i]));
      table.AddInteger(s.ms);
      table.AddNumber(s.gbps, 1);
      table.AddInteger(s.drops);
      table.AddNumber(s.reads, 2);
    }
  }
  EmitFigure(
      "Convergence time series (iperf, 10 flows, cold start, 1 ms samples)\n\n", table);
}

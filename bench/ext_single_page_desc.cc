// Extension experiment (paper §3 "Generality of F&S techniques"):
// single-page descriptors (Intel ICE-style NICs).
//
// The paper argues F&S's contiguous allocation and PTcache preservation
// apply directly to single-page descriptors, while batched invalidations
// lose their leverage (invalidations must stay at descriptor = page
// granularity), and leaves the evaluation to future work. This bench runs
// it: iperf at 5 flows with pages-per-descriptor in {1, 8, 64}.
#include <string>

#include "bench/figure_common.h"

void fsio::bench::ExtSinglePageDesc() {
  const auto points = ModeGrid(PaperModes(), Sweep({1u, 8u, 64u}));

  const auto runs = ParallelSweep<IperfRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 5;
    config.host.pages_per_desc = points[i].x;
    return RunIperf({config, 5});
  });

  Table table({"mode", "pages/desc", "gbps", "iotlb/pg", "l3/pg", "reads/pg",
               "inv_req/pg"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& run = runs[i];
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(std::to_string(points[i].x));
    table.AddNumber(run.window.goodput_gbps, 1);
    table.AddNumber(run.window.iotlb_miss_per_page, 2);
    table.AddNumber(run.window.l3_miss_per_page, 3);
    table.AddNumber(run.window.mem_reads_per_page, 2);
    table.AddNumber(InvRequestsPerPage(run.window), 2);
  }
  EmitFigure(
      "Extension: F&S with single-page descriptors (paper leaves this to\n"
      "future work). Expected: preservation + contiguity still help; the\n"
      "batched-invalidation benefit shrinks as pages/descriptor -> 1.\n\n",
      table);
}

// Figure 12: contribution of each F&S design idea (ablation).
//
// Redis SET at 8 KB values, four configurations:
//   (i)   default Linux strict
//   (ii)  Linux + A: preserve IO page table caches on unmap
//   (iii) Linux + B: contiguous IOVA allocation + batched invalidations
//   (iv)  Linux + F&S (all three ideas)
// Paper result: A alone and B alone each leave large PTcache miss rates;
// only the combination reaches full throughput.
#include <vector>

#include "bench/figure_common.h"
#include "src/apps/redis.h"

void fsio::bench::Fig12Ablation() {
  const std::vector<ProtectionMode> configs = WithCapability(
      Sweep({ProtectionMode::kStrict, ProtectionMode::kStrictPreserve,
             ProtectionMode::kStrictContig, ProtectionMode::kFastSafe, ProtectionMode::kOff}));
  const auto runs = ParallelSweep<AppsRun>(configs.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = configs[i];
    config.cores = 8;
    config.mtu_bytes = 9000;
    return RunApps({config, RedisSetConfig(8 * 1024), 8});
  });

  Table table({"config", "set_gbps", "iotlb/pg", "l1/pg", "l2/pg", "l3/pg", "reads/pg"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    table.BeginRow();
    table.AddCell(ProtectionModeName(configs[i]));
    table.AddNumber(runs[i].request_gbps, 1);
    table.AddNumber(runs[i].window.iotlb_miss_per_page, 2);
    table.AddNumber(runs[i].window.l1_miss_per_page, 3);
    table.AddNumber(runs[i].window.l2_miss_per_page, 3);
    table.AddNumber(runs[i].window.l3_miss_per_page, 3);
    table.AddNumber(runs[i].window.mem_reads_per_page, 2);
  }
  EmitFigure(
      "Figure 12: necessity of each F&S idea (Redis SET, 8 KB values)\n"
      "(expected: strict < strict+A, strict+B < fast-and-safe ~ off)\n\n",
      table);
}

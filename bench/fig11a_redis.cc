// Figure 11a: Redis SET throughput vs value size under each protection mode.
//
// 8 cores, 9 KB MTU, pipeline 32, value sizes 4-128 KB. Paper results:
// strict loses 38-70% (worse at small values, where per-request replies
// inflate IOTLB contention); F&S matches IOMMU-off except a small gap at
// 4 KB values.
#include "bench/figure_common.h"
#include "src/apps/redis.h"

void fsio::bench::Fig11aRedis() {
  RunAppsFigure(
      "Figure 11a: Redis 100% SET throughput vs value size\n"
      "(expected: strict -38..70%, worst at small values; F&S ~ off)\n\n",
      {"mode", "value_kb", "set_gbps", "kops/s", "iotlb/pg", "reads/pg"},
      Sweep<std::uint64_t>({4, 8, 16, 32, 64, 128}), RedisSetConfig,
      [](Table* table, const AppsRun& run) {
        table->AddNumber(run.request_gbps, 1);
        table->AddNumber(run.ops_per_s / 1000.0, 1);
        table->AddNumber(run.window.iotlb_miss_per_page, 2);
        table->AddNumber(run.window.mem_reads_per_page, 2);
      });
}

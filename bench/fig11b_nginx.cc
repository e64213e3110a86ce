// Figure 11b: Nginx web-serving throughput vs page size.
//
// wrk-style clients fetch 128 KB - 2 MB pages from a server running one
// instance per core. Paper results: IOMMU-off tops out near 90 Gbps
// (application overhead); strict loses 65-70% across all page sizes; F&S
// fully recovers the IOMMU-off throughput.
#include "bench/figure_common.h"
#include "src/apps/nginx.h"

void fsio::bench::Fig11bNginx() {
  // Server on host 1 (the measured host, transmitting pages), clients on
  // host 0: NginxGetConfig defaults have the server on host 1.
  RunAppsFigure(
      "Figure 11b: Nginx throughput vs web page size\n"
      "(expected: off ~ 90 Gbps app-limited; strict -65..70%; F&S ~ off)\n\n",
      {"mode", "page_kb", "gbps", "pages/s"},
      Sweep<std::uint64_t>({128, 256, 512, 1024, 2048}), NginxGetConfig,
      [](Table* table, const AppsRun& run) {
        table->AddNumber(run.response_gbps, 1);
        table->AddNumber(run.ops_per_s, 0);
      });
}

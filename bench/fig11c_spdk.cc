// Figure 11c: SPDK remote-storage read throughput vs block size.
//
// Client threads on the measured host read 32-256 KB blocks with IO depth 8
// from a storage server. Paper results: strict caps near ~60 Gbps; F&S
// matches IOMMU-off except a small gap at 32 KB (request-packet IOTLB
// contention).
#include "bench/figure_common.h"
#include "src/apps/spdk.h"

void fsio::bench::Fig11cSpdk() {
  // SPDK config puts the measured client on host 1.
  RunAppsFigure(
      "Figure 11c: SPDK read throughput vs block size (IO depth 8)\n"
      "(expected: strict <= ~60 Gbps; F&S ~ off, small gap at 32 KB)\n\n",
      {"mode", "block_kb", "gbps", "kiops"}, Sweep<std::uint64_t>({32, 64, 128, 256}),
      SpdkReadConfig, [](Table* table, const AppsRun& run) {
        table->AddNumber(run.response_gbps, 1);
        table->AddNumber(run.ops_per_s / 1000.0, 1);
      });
}

// Figure 7 (a-e): F&S vs Linux strict vs IOMMU-off, sweeping flow count.
//
// Paper results: F&S matches IOMMU-off throughput at every flow count,
// eliminates drops, halves IOTLB misses at 40 flows (fewer ACKs), brings
// PTcache-L1/L2 misses to zero and PTcache-L3 misses below 0.045/page, and
// keeps IOVA locality flat.
#include "bench/figure_common.h"

void fsio::bench::Fig07FlowsFs() {
  RunIperfFigure(
      "Figure 7: F&S near-completely eliminates protection overheads vs flows\n"
      "(expected: fast-and-safe == iommu-off, l1/l2/l3 misses ~ 0)\n\n",
      "flows", PaperModes(), Sweep({5u, 10u, 20u, 40u}),
      [](const TestbedConfig& config, std::uint32_t flows) { return IperfPoint{config, flows}; });
}

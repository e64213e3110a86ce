// Figure 2 (a-e): modern memory protection overheads vs number of flows.
//
// iperf, 4 KB MTU, ring 256, 5 cores; flows in {5, 10, 20, 40}; IOMMU off vs
// Linux strict. Paper results: 20-65% throughput loss, up to 4% drops,
// 1.30-2.20 IOTLB misses/page, PTcache misses growing with flows, and
// degrading PTcache-L3 locality.
#include "bench/figure_common.h"

void fsio::bench::Fig02Flows() {
  RunIperfFigure(
      "Figure 2: memory protection overheads vs number of flows\n"
      "(iperf, 4KB MTU, ring 256, 5 cores; paper: 80->35 Gbps for strict)\n\n",
      "flows", WithCapability({ProtectionMode::kOff, ProtectionMode::kStrict}),
      Sweep({5u, 10u, 20u, 40u}),
      [](const TestbedConfig& config, std::uint32_t flows) { return IperfPoint{config, flows}; });
}

// Figure 3 (a-e): memory protection overheads vs Rx ring buffer size.
//
// iperf, 5 flows; ring size in {256, 512, 1024, 2048} MTU packets. Paper
// results: growing PTcache-L3 misses (larger IOVA working set), roughly
// constant IOTLB misses, up to ~15 additional percentage points of
// throughput degradation at 2048.
#include "bench/figure_common.h"

void fsio::bench::Fig03RingSize() {
  RunIperfFigure(
      "Figure 3: memory protection overheads vs ring buffer size\n"
      "(iperf, 5 flows, 4KB MTU; paper: L3 misses grow with the working set)\n\n",
      "ring", WithCapability({ProtectionMode::kOff, ProtectionMode::kStrict}),
      Sweep({256u, 512u, 1024u, 2048u}), [](TestbedConfig config, std::uint32_t ring) {
        config.ring_size_pkts = ring;
        return IperfPoint{config, 5};
      });
}

// Figure 8 (a-e): F&S vs Linux strict vs IOMMU-off, sweeping ring size.
//
// Paper results: F&S holds line rate as the IOVA working set grows (at most
// 0.053 PTcache-L3 misses/page) with a tiny CPU-bound gap at ring 2048
// (§4.4); locality stays flat because it is guaranteed per descriptor.
#include "bench/figure_common.h"

void fsio::bench::Fig08RingSizeFs() {
  RunIperfFigure(
      "Figure 8: F&S maintains locality as the IO working set grows\n"
      "(expected: fast-and-safe ~ iommu-off at every ring size)\n\n",
      "ring", PaperModes(), Sweep({256u, 512u, 1024u, 2048u}),
      [](TestbedConfig config, std::uint32_t ring) {
        config.ring_size_pkts = ring;
        return IperfPoint{config, 5};
      });
}

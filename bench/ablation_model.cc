// Sensitivity of the headline result to the simulator's own design choices
// (the ablation-worthy decisions documented in DESIGN.md §5b): walker
// parallelism, DDIO commit rate, RC buffer depth, leaf-PTE read cost, and
// PTcache presence. For each variant we report strict and F&S iperf
// throughput at 5 flows — the headline gap should be robust, and the table
// shows which knobs it actually depends on.
#include <functional>
#include <string>
#include <vector>

#include "bench/figure_common.h"

void fsio::bench::AblationModel() {
  struct Variant {
    std::string name;
    std::function<void(TestbedConfig*)> apply;
  };
  std::vector<Variant> variants = {
      {"baseline", [](TestbedConfig*) {}},
      {"walkers=2",
       [](TestbedConfig* c) { c->host.iommu.num_walkers = 2; }},
      {"walkers=4",
       [](TestbedConfig* c) { c->host.iommu.num_walkers = 4; }},
      {"ddio-on (commit 32B/ns)",
       [](TestbedConfig* c) { c->host.pcie.commit_bytes_per_ns = 32.0; }},
      {"rc-buffer 64 lines",
       [](TestbedConfig* c) { c->host.pcie.rc_buffer_bytes = 4096; }},
      {"rc-buffer 200 lines",
       [](TestbedConfig* c) { c->host.pcie.rc_buffer_bytes = 12800; }},
      {"leaf-read = DRAM cost",
       [](TestbedConfig* c) { c->host.iommu.leaf_pte_read_ns = 280; }},
      {"no PTcaches (pre-2010 IOMMU)",
       [](TestbedConfig* c) { c->host.iommu.ptcache_enabled = false; }},
      {"small IOTLB (16 entries)",
       [](TestbedConfig* c) {
         c->host.iommu.iotlb_sets = 4;
         c->host.iommu.iotlb_ways = 4;
       }},
      {"no descriptor-fetch DMA",
       [](TestbedConfig* c) { c->host.nic.model_descriptor_fetch = false; }},
      {"no IOVA free migration",
       [](TestbedConfig* c) { c->host.dma.free_migration_fraction = 0.0; }},
  };
  if (SmokeMode()) {
    variants.resize(1);
  }

  // Each (variant, mode) pair is an independent sweep point.
  const ProtectionMode modes[] = {ProtectionMode::kStrict, ProtectionMode::kFastSafe};
  const auto runs = ParallelSweep<IperfRun>(variants.size() * 2, [&](std::size_t i) {
    TestbedConfig config;
    config.mode = modes[i % 2];
    config.cores = 5;
    variants[i / 2].apply(&config);
    return RunIperf({config, 5});
  });

  Table table({"variant", "strict_gbps", "fs_gbps", "strict_reads/pg", "fs_reads/pg"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    table.BeginRow();
    table.AddCell(variants[v].name);
    table.AddNumber(runs[v * 2].window.goodput_gbps, 1);
    table.AddNumber(runs[v * 2 + 1].window.goodput_gbps, 1);
    table.AddNumber(runs[v * 2].window.mem_reads_per_page, 2);
    table.AddNumber(runs[v * 2 + 1].window.mem_reads_per_page, 2);
  }
  EmitFigure(
      "Model ablation: strict vs F&S (iperf, 5 flows) under simulator variants\n\n",
      table);
}

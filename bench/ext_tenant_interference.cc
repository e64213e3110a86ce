// Extension: multi-tenant interference (not a paper figure).
//
// Two SR-IOV-style NIC functions share one PCIe link and one IOMMU: a
// latency-critical tenant issuing small RPC descriptors, and a noisy
// neighbor churning full-sized descriptors as fast as the arbiter lets it.
// For every protection mode the victim runs three ways — solo, contended on
// a shared IOTLB, and contended on a way-partitioned IOTLB
// (iotlb_partition=per_domain) — and reports its per-op latency tail
// (p50/p99/p999).
//
// What the sweep shows: the neighbor inflates the victim's latency in every
// mode. In the IOMMU modes its DMA walks occupy the shared walkers and its
// TLPs the shared link; off and capability bypass the IOMMU, so only the
// link is shared, and a neighbor with little per-op CPU work (off,
// hugepage-persistent) queues the most link time ahead of each victim op.
// Way-partitioning the IOTLB barely moves the tail: the victim is bound by
// walkers and the link, not by IOTLB capacity. Safety is also asserted:
// the cross-domain hit count must stay zero in every cell, every DMA must
// land (the bench exits 1 otherwise), and the modes that bypass the IOMMU
// must make no translation.
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/driver/protection.h"
#include "src/tenant/tenant_system.h"

namespace fsio::bench {
namespace {

enum class Variant : int { kSolo = 0, kContended, kContendedPartitioned };

const char* VariantNeighbor(Variant v) { return v == Variant::kSolo ? "none" : "churn"; }
const char* VariantPartition(Variant v) {
  return v == Variant::kContendedPartitioned ? "per_domain" : "none";
}

struct Point {
  ProtectionMode mode;
  Variant variant;
};

struct PointResult {
  TenantReport victim;
  TenantReport noisy;
  bool has_noisy = false;
  std::uint64_t translations = 0;  // iommu.translations, both tenants
};

PointResult RunPoint(const Point& point, std::uint64_t rounds) {
  TenantSystemConfig config;
  TenantConfig victim;
  victim.mode = point.mode;
  victim.latency_critical = true;
  victim.weight = 1;
  config.tenants.push_back(victim);
  if (point.variant != Variant::kSolo) {
    TenantConfig noisy;
    noisy.mode = point.mode;
    noisy.latency_critical = false;
    noisy.weight = 4;  // the arbiter grants the neighbor 4 descriptors per victim op
    // A deep pipeline keeps ~depth*64 pages live, spread across far more
    // 2 MB regions than PTcache-L3 holds — the neighbor shape that actually
    // evicts the victim's walk path, not just its IOTLB lines.
    noisy.pipeline_depth = SmokeMode() ? 128 : 1024;
    config.tenants.push_back(noisy);
  }
  if (point.variant == Variant::kContendedPartitioned) {
    config.iommu.iotlb_partitions = 2;
  }
  TenantSystem system(config);
  system.RunRounds(rounds);
  PointResult out;
  out.victim = system.Report(0);
  if (point.variant != Variant::kSolo) {
    out.noisy = system.Report(1);
    out.has_noisy = true;
  }
  out.translations = system.stats().Value("iommu.translations");
  return out;
}

}  // namespace

void ExtTenantInterference() {
  const std::vector<ProtectionMode> modes = WithCapability(Sweep({
      ProtectionMode::kOff, ProtectionMode::kStrict, ProtectionMode::kDeferred,
      ProtectionMode::kStrictPreserve, ProtectionMode::kStrictContig,
      ProtectionMode::kFastSafe, ProtectionMode::kHugepagePersistent}));
  const std::uint64_t rounds = SmokeMode() ? 300 : 4000;

  std::vector<Point> points;
  for (ProtectionMode mode : modes) {
    for (Variant v : {Variant::kSolo, Variant::kContended, Variant::kContendedPartitioned}) {
      points.push_back(Point{mode, v});
    }
  }
  const auto results = ParallelSweep<PointResult>(
      points.size(), [&](std::size_t i) { return RunPoint(points[i], rounds); });

  Table table({"mode", "neighbor", "iotlb_part", "ops", "p50_ns", "p99_ns", "p999_ns",
               "noisy_ops", "cross_dom", "violations"});
  bool failed = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = results[i];
    const std::uint64_t faulted = r.victim.faulted_dmas + r.noisy.faulted_dmas;
    if (faulted != 0 || (!UsesIommu(points[i].mode) && r.translations != 0)) {
      std::cerr << "ext_tenant_interference: " << ProtectionModeName(points[i].mode) << " / "
                << VariantNeighbor(points[i].variant) << " / "
                << VariantPartition(points[i].variant) << ": " << faulted
                << " faulted DMA(s), " << r.translations << " IOMMU translation(s)\n";
      failed = true;
    }
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(VariantNeighbor(points[i].variant));
    table.AddCell(VariantPartition(points[i].variant));
    table.AddInteger(static_cast<long long>(r.victim.ops));
    table.AddInteger(static_cast<long long>(r.victim.p50_ns));
    table.AddInteger(static_cast<long long>(r.victim.p99_ns));
    table.AddInteger(static_cast<long long>(r.victim.p999_ns));
    table.AddInteger(static_cast<long long>(r.has_noisy ? r.noisy.ops : 0));
    table.AddInteger(static_cast<long long>(r.victim.cross_domain +
                                            (r.has_noisy ? r.noisy.cross_domain : 0)));
    table.AddInteger(static_cast<long long>(r.victim.violations +
                                            (r.has_noisy ? r.noisy.violations : 0)));
  }
  EmitFigure(
      "Extension: tenant interference (victim latency tail vs noisy neighbor)\n"
      "a churn neighbor delays the victim in every mode: through the shared\n"
      "walkers and link in IOMMU modes, the link alone in off and capability;\n"
      "IOTLB way partitioning barely changes it.\n\n",
      table);
  if (failed) {
    throw std::runtime_error("ext_tenant_interference: safety check failed (see above)");
  }
}

}  // namespace fsio::bench

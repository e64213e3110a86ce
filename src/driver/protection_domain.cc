#include "src/driver/protection_domain.h"

namespace fsio {

ProtectionDomain::ProtectionDomain(const ProtectionDomainConfig& config, Iommu* iommu,
                                   Binding binding, StatsRegistry* stats)
    : config_(config), iommu_(iommu), stats_(stats) {
  if (iommu_ != nullptr && binding == Binding::kNewDomain) {
    id_ = iommu_->AddDomain(nullptr);  // Build() installs the page table
  }
  config_.dma.domain = id_;
  Build();
}

void ProtectionDomain::Build() {
  Stack fresh;
  fresh.page_table = std::make_unique<IoPageTable>(
      stack_.page_table != nullptr ? stack_.page_table->next_page_id() : 1);
  if (iommu_ != nullptr) {
    iommu_->SetDomainPageTable(id_, fresh.page_table.get());
  }
  fresh.iova = std::make_unique<IovaAllocator>(config_.iova, stats_);
  fresh.dma = std::make_unique<DmaApi>(config_.dma, fresh.iova.get(), fresh.page_table.get(),
                                       iommu_, stats_);
  // The IOMMU keeps table-page ids by value and forgot its repeat memo when
  // the new table went in, so nothing points into the old stack any more.
  stack_ = std::move(fresh);
  stack_.dma->SetFailureSink(invariants_);
  SetOracle(oracle_);
  SetFaultInjector(injector_);
  SetTrace(trace_);
  SetL3Tracker(l3_tracker_);
}

void ProtectionDomain::SetOracle(SafetyOracle* oracle) {
  oracle_ = oracle;
  stack_.dma->SetSafetyOracle(oracle);
  if (iommu_ != nullptr) {
    iommu_->SetDomainOracle(id_, oracle);
  }
}

void ProtectionDomain::SetFaultInjector(FaultInjector* injector) {
  injector_ = injector;
  stack_.iova->SetFaultInjector(injector);
  stack_.dma->SetFaultInjector(injector);
}

void ProtectionDomain::SetTrace(const TraceScope& trace) {
  trace_ = trace;
  stack_.dma->SetTrace(trace);
}

void ProtectionDomain::SetL3Tracker(ReuseDistanceTracker* tracker) {
  l3_tracker_ = tracker;
  stack_.dma->SetL3Tracker(tracker);
}

void ProtectionDomain::RegisterInvariants(InvariantRegistry* registry,
                                          const std::string& prefix) {
  invariants_ = registry;
  if (registry == nullptr) {
    return;
  }
  stack_.dma->RegisterInvariants(registry, prefix, [this] { return stack_.dma.get(); });
  registry->Register(prefix + "pagetable.consistency", [this](std::string* detail) {
    return stack_.page_table->CheckConsistency(detail);
  });
  if (oracle_ != nullptr) {
    registry->Register(prefix + "oracle.no_overlap", [oracle = oracle_](std::string* detail) {
      if (oracle->overlap_maps() != 0) {
        *detail = "overlapping live map observed";
        return false;
      }
      return true;
    });
  }
}

void ProtectionDomain::Rebuild() {
  // The crashed instance's driver intent is void: every mapping it held is
  // now dead, so any device access through a surviving cache entry is a
  // caught violation rather than silently "still mapped".
  if (oracle_ != nullptr) {
    oracle_->ForceUnmapAll();
  }
  Build();
}

}  // namespace fsio

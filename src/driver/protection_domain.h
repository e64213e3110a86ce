// One protection domain's driver stack: the IO page table, IOVA allocator
// and DMA API that the paper's driver patch changes (§1), bound to one
// DomainId of an IOMMU, plus the safety and observability hooks wired into
// them.
//
// A Host binds its IOMMU's host domain, or nothing when the mode bypasses
// the IOMMU (kOff, kCapability); a TenantSystem tenant and each domain of a
// multi-domain differential run bind a fresh AddDomain id. Tenants' IOVA
// spaces alias numerically: isolation comes from the domain tag, exactly as
// with per-PASID tables in VT-d scalable mode. Hooks are non-owning and may
// be null; Rebuild() re-applies every one of them to the objects it builds.
#ifndef FASTSAFE_SRC_DRIVER_PROTECTION_DOMAIN_H_
#define FASTSAFE_SRC_DRIVER_PROTECTION_DOMAIN_H_

#include <memory>
#include <string>

#include "src/driver/dma_api.h"

namespace fsio {

struct ProtectionDomainConfig {
  IovaAllocatorConfig iova;
  DmaApiConfig dma;  // `dma.domain` is set to the bound domain id
};

class ProtectionDomain {
 public:
  enum class Binding { kHostDomain, kNewDomain };

  // Builds the stack and installs its page table as the bound domain's
  // translation root. A null `iommu` binds nothing (id kHostDomain).
  ProtectionDomain(const ProtectionDomainConfig& config, Iommu* iommu, Binding binding,
                   StatsRegistry* stats);
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;

  DomainId id() const { return id_; }
  DmaApi& dma() { return *stack_.dma; }
  IoPageTable& page_table() { return *stack_.page_table; }

  // The oracle sees the DMA API's map/unmap events and every device
  // translation of the bound domain.
  void SetOracle(SafetyOracle* oracle);
  // Injected faults for the IOVA allocator and the DMA API.
  void SetFaultInjector(FaultInjector* injector);
  void SetTrace(const TraceScope& trace);
  void SetL3Tracker(ReuseDistanceTracker* tracker);
  // Registers, once, the DMA API's checks and "pagetable.consistency", all
  // under `prefix` and all following Rebuild() to the live stack, and, when
  // an oracle is set, `prefix` + "oracle.no_overlap"; the registry is also
  // every DMA API's failure sink. Call after SetOracle.
  void RegisterInvariants(InvariantRegistry* registry, const std::string& prefix = "");

  // Crash recovery: every live mapping goes dead in the oracle and a fresh
  // stack, with every hook, takes over the same domain; the old one is
  // freed. The new page table continues the old one's page ids, so a
  // surviving PTcache pointer into the old table reads as stale. The shared
  // caches still hold the dead stack's translations: the caller issues the
  // invalidation.
  void Rebuild();

 private:
  struct Stack {
    std::unique_ptr<IoPageTable> page_table;
    std::unique_ptr<IovaAllocator> iova;
    std::unique_ptr<DmaApi> dma;
  };

  // Builds a fresh stack, binds its page table, frees the old stack and
  // applies the hooks.
  void Build();

  ProtectionDomainConfig config_;
  Iommu* iommu_;
  StatsRegistry* stats_;
  DomainId id_ = kHostDomain;
  Stack stack_;

  SafetyOracle* oracle_ = nullptr;
  FaultInjector* injector_ = nullptr;
  TraceScope trace_;
  ReuseDistanceTracker* l3_tracker_ = nullptr;
  InvariantRegistry* invariants_ = nullptr;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_DRIVER_PROTECTION_DOMAIN_H_

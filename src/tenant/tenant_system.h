// Multi-tenant testbed: N protection domains sharing one IOMMU, one PCIe
// link / root complex and one memory system.
//
// Each tenant is one SR-IOV-style NIC function driving its own DmaApi: a
// latency-critical tenant issues small RPC-sized descriptors synchronously
// and records per-op latency (map + device check + DMA completion + unmap)
// into a histogram; a noisy neighbor churns descriptor-sized mappings
// asynchronously — its DMAs are issued fire-and-forget, so their page-table
// walks occupy the shared walker(s) while the victim's op is in flight.
// Ops execute on one global simulated clock in the weighted-round-robin
// order the FunctionArbiter grants, so tenants interfere exactly where the
// hardware says they should: shared IOTLB and PTcache capacity, shared
// walkers, shared invalidation queue — and nowhere else (the per-domain
// invariant the safety oracle enforces).
//
// Every mode runs the same op: map, device check, DMA, record. The device
// check is the capability gate of a kCapability function and allows
// everything otherwise; a function whose mode bypasses the IOMMU (kOff,
// kCapability) sends its TLPs to memory untranslated, as a Host in that mode
// does.
//
// Descriptors are pipelined one deep: an op unmaps the previous descriptor
// and leaves its own mapped. A tenant crash therefore strands a mapped
// in-flight descriptor plus whatever the shared caches hold for the domain
// — exactly the state Recover() must neutralize (ProtectionDomain::Rebuild:
// force-unmap + fresh tables, then a domain-selective invalidation).
#ifndef FASTSAFE_SRC_TENANT_TENANT_SYSTEM_H_
#define FASTSAFE_SRC_TENANT_TENANT_SYSTEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/driver/protection.h"
#include "src/driver/protection_domain.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pcie/root_complex.h"
#include "src/stats/counters.h"
#include "src/stats/histogram.h"

namespace fsio {

struct TenantConfig {
  ProtectionMode mode = ProtectionMode::kFastSafe;
  // Latency-critical tenants issue 4-page descriptors (kRpcPages in
  // tenant_system.cc); others churn `churn_pages` descriptors (the
  // noisy-neighbor shape).
  bool latency_critical = false;
  std::uint32_t weight = 1;  // arbiter share of the PCIe link
  // Descriptors kept mapped before the oldest is retired. Depth 1 is an
  // RPC-style tight loop; a deep pipeline keeps a wide live-IOVA footprint
  // (depth * pages spread over many 2 MB regions), which is what actually
  // pressures the shared PTcache.
  std::uint32_t pipeline_depth = 1;
};

struct TenantSystemConfig {
  std::vector<TenantConfig> tenants;
  IommuConfig iommu;  // shared hardware: geometry, partitioning, injection
  PcieConfig pcie;
  MemoryConfig memory;
  std::uint32_t churn_pages = 64;
};

struct TenantReport {
  std::uint64_t ops = 0;
  TimeNs p50_ns = 0;
  TimeNs p99_ns = 0;
  TimeNs p999_ns = 0;
  std::uint64_t violations = 0;     // all oracle kinds, this domain
  std::uint64_t cross_domain = 0;   // dma_cross_domain_hit, this domain
  // DMAs that did not land: a TLP faulted in the IOMMU, or the device check
  // refused the descriptor.
  std::uint64_t faulted_dmas = 0;
};

// Weighted round-robin over the NIC functions sharing the PCIe link: each
// credit cycle hands every backlogged function up to `weight` grants, one
// per visit, before credits refill, so a heavier tenant gets proportionally
// more of the link without ever starving a lighter one. The arbiter decides
// only the ORDER of DMAs; the interference happens downstream, on the shared
// link and IOMMU. Deterministic: grants depend only on weights and queue
// contents.
class FunctionArbiter {
 public:
  // Adds a function (index = number added before it). Weight 0 counts as 1.
  void Add(std::uint32_t weight);
  void Enqueue(std::size_t fn, std::uint32_t jobs) { functions_[fn].queued += jobs; }

  // Grants the link to the next function, popping one of its jobs, and
  // returns its index; nullopt when no function has work.
  std::optional<std::size_t> Next();

 private:
  struct Function {
    std::uint32_t weight;
    std::uint32_t credits;
    std::uint64_t queued = 0;
  };
  std::vector<Function> functions_;
  std::size_t cursor_ = 0;
};

class TenantSystem {
 public:
  explicit TenantSystem(const TenantSystemConfig& config);

  // Runs `rounds` arbitration rounds; each round enqueues `weight` jobs per
  // live tenant and drains them through the arbiter on the shared clock.
  void RunRounds(std::uint64_t rounds);

  // Crash/recovery of one tenant. Crash stops the tenant mid-flight (its
  // in-flight descriptor stays mapped, its cache entries stay resident);
  // Recover rebuilds the domain and resumes it.
  void CrashTenant(std::size_t idx);
  void RecoverTenant(std::size_t idx);
  bool crashed(std::size_t idx) const { return tenants_[idx].crashed; }

  TenantReport Report(std::size_t idx) const;

  // IOVAs of the tenant's in-flight (still mapped) descriptors — after a
  // crash, the stranded device-visible state recovery must revoke.
  std::vector<Iova> StrandedIovas(std::size_t idx) const {
    std::vector<Iova> out;
    for (const Desc& d : tenants_[idx].in_flight) {
      for (const DmaMapping& m : d.mappings) {
        out.push_back(m.iova);
      }
    }
    return out;
  }

  ProtectionDomain& domain(std::size_t idx) { return *tenants_[idx].domain; }
  Iommu& iommu() { return *iommu_; }
  StatsRegistry& stats() { return stats_; }
  TimeNs now() const { return now_; }

 private:
  struct Desc {
    std::vector<DmaMapping> mappings;
    std::vector<PhysAddr> frames;
  };

  struct Tenant {
    TenantConfig config;
    // Per-domain ground truth for the isolation invariants: private counts
    // (no registry), so violations stay attributed to this tenant.
    std::unique_ptr<SafetyOracle> oracle;
    std::unique_ptr<ProtectionDomain> domain;
    Histogram latency;
    // Descriptor pipeline (oldest first): mappings + backing frames live.
    std::deque<Desc> in_flight;
    std::uint64_t faulted_dmas = 0;
    bool crashed = false;
    // Async (non-latency-critical) tenants: completion time of the last
    // issued DMA. New jobs are gated on it so the device never queues
    // unboundedly far ahead of the clock.
    TimeNs busy_until = 0;
  };

  void RunOp(Tenant* tenant);
  // Retires (unmaps) in-flight descriptors at *t until the pipeline is below
  // the tenant's depth, advancing *t by the consumed CPU time and returning
  // the frames to the allocator.
  void RetireInFlight(Tenant* tenant, TimeNs* t);

  TenantSystemConfig config_;
  StatsRegistry stats_;
  std::unique_ptr<MemorySystem> memory_;
  // Host-domain page table backing Iommu domain 0 (unused by tenants).
  std::unique_ptr<IoPageTable> host_page_table_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<RootComplex> root_complex_;
  std::unique_ptr<FrameAllocator> frames_;
  std::vector<Tenant> tenants_;
  FunctionArbiter arbiter_;
  TimeNs now_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_TENANT_TENANT_SYSTEM_H_

// DMA-API layer: the IOMMU driver's map/unmap datapaths for every
// protection mode, including the F&S datapath (the paper's ~630-LOC kernel
// change, reproduced here as a policy object).
//
// The NIC driver calls MapPages() when preparing an Rx descriptor (64 pages
// at once), MapOnePage() per Tx buffer page, and UnmapDescriptor() when the
// NIC signals descriptor completion. Every call returns the CPU time it
// consumed on the calling core — strict-mode invalidation waits are the
// dominant term and what F&S's batched invalidations amortize. Each entry
// point switches on UnmapSemanticsFor(mode) (protection.h); placement and
// invalidation scope come from UsesContiguousIovas and PreservesPtCaches.
#ifndef FASTSAFE_SRC_DRIVER_DMA_API_H_
#define FASTSAFE_SRC_DRIVER_DMA_API_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/capability/capability_table.h"
#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/address.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/rng.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/stats/reuse_distance.h"
#include "src/trace/tracer.h"

namespace fsio {

struct DmaApiConfig {
  ProtectionMode mode = ProtectionMode::kStrict;
  std::uint32_t pages_per_chunk = 64;  // descriptor-sized IOVA chunk (256 KB)
  // Deferred mode: flush after this many unmapped IOVAs (Linux flush queue).
  std::uint32_t deferred_flush_threshold = 256;
  // Fraction of IOVA frees landing in a different core's cache, modeling the
  // softirq/workqueue/flow migration that scrambles Linux's per-core IOVA
  // caches over time (§2.2: "allocation and free calls by different cores
  // ... result in degradation of locality within the caches over time").
  double free_migration_fraction = 0.15;
  std::uint32_t num_cores = 8;  // migration target space
  // Hugepage-backed descriptors: when a descriptor's frames form one
  // physically contiguous, 2 MB-aligned huge frame with 512 pages, map it
  // with a single PT-L3 leaf entry (F&S-with-hugepages, the paper's §5
  // future-work direction). Applies to contiguous-IOVA modes only.
  bool use_hugepages = false;
  // Fault injection for safety tests: when true, F&S "forgets" to invalidate
  // PTcaches on page-table-page reclamation — the bug the paper's design
  // explicitly guards against. Tests prove the safety oracle catches it.
  bool inject_skip_reclaim_invalidation = false;
  // Graceful degradation under injected environment faults: invalidation
  // resubmits before the driver gives up (timeout and backoff: DmaApi).
  std::uint32_t inv_max_retries = 4;
  // kCapability mode: the device-side lookup cost the NIC pays per
  // capability check at descriptor fetch (grant and revoke are driver-CPU
  // costs like map/unmap, constants in CapabilityTable).
  CapabilityConfig capability;
  // Protection domain this driver instance maps/invalidates on behalf of.
  // Default (host domain 0) preserves single-tenant behavior; tenant drivers
  // scope every invalidation to their own domain, and the retry path's
  // last-resort flush becomes domain-selective instead of global.
  DomainId domain{};
};

// One mapped DMA page handed to the NIC.
struct DmaMapping {
  Iova iova = 0;
  PhysAddr phys = 0;
  std::uint64_t chunk_id = 0;  // 0 = standalone per-page IOVA
  bool operator==(const DmaMapping&) const = default;
};

class DmaApi {
 public:
  // CPU cost model (per operation, on the calling core).
  static constexpr TimeNs kMapPageCpuNs = 120;
  static constexpr TimeNs kUnmapPageCpuNs = 100;
  static constexpr TimeNs kIovaAllocCpuNs = 60;
  static constexpr TimeNs kInvSubmitCpuNs = 200;  // submit one invalidation request + spin setup
  // Invalidation wait: if the hardware shows no completion within this
  // budget the driver assumes the request was lost and resubmits.
  static constexpr TimeNs kInvWaitTimeoutNs = 50'000;
  // Backoff before the first resubmit; doubles per retry.
  static constexpr TimeNs kInvRetryBackoffNs = 1'000;
  // IOVA / frame allocation failures are retried this many times before the
  // map call gives up and returns an empty result.
  static constexpr std::uint32_t kIovaAllocMaxRetries = 8;

  DmaApi(const DmaApiConfig& config, IovaAllocator* iova, IoPageTable* page_table, Iommu* iommu,
         StatsRegistry* stats);

  struct MapResult {
    std::vector<DmaMapping> mappings;
    TimeNs cpu_ns = 0;
  };
  struct UnmapResultInfo {
    TimeNs cpu_ns = 0;        // CPU time consumed (incl. invalidation waits)
    TimeNs hw_done = 0;       // invalidation-hardware completion time
    std::uint32_t invalidation_requests = 0;
  };

  // Maps `frames` (an Rx descriptor's buffer pages) for `core`.
  MapResult MapPages(std::uint32_t core, const std::vector<PhysAddr>& frames);

  // One mapped page, returned by value (no one-element vector on the per-
  // packet Tx path). `mapping.iova` is kInvalidIova when the map failed.
  struct PageMapResult {
    DmaMapping mapping{IovaAllocator::kInvalidIova, 0, 0};
    TimeNs cpu_ns = 0;
    bool ok() const { return mapping.iova != IovaAllocator::kInvalidIova; }
  };

  // Maps a single page (Tx datapath). In contiguous modes the page is placed
  // at the per-core chunk cursor, packing Tx pages across descriptors.
  PageMapResult MapOnePage(std::uint32_t core, PhysAddr frame);
  // MapOnePage as a descriptor-shaped result: one mapping, or none on failure.
  MapResult MapPage(std::uint32_t core, PhysAddr frame);

  // Unmaps one descriptor's worth of mappings at time `at` and performs the
  // mode's invalidation policy. Mappings must come from this DmaApi.
  UnmapResultInfo UnmapDescriptor(std::uint32_t core, const std::vector<DmaMapping>& mappings,
                                  TimeNs at);

  // Maps `pages` persistently (descriptor rings): mapped once, never
  // unmapped, one contiguous IOVA range. Returns the base IOVA.
  Iova MapPersistent(std::uint32_t core, const std::vector<PhysAddr>& frames);

  // kHugepagePersistent mode: hands out a descriptor backed by a
  // permanently mapped hugepage. Reuses a pooled descriptor when available;
  // otherwise calls `alloc_huge` for a fresh 2 MB frame and maps it once.
  MapResult AcquirePersistentDescriptor(std::uint32_t core,
                                        const std::function<PhysAddr()>& alloc_huge);

  // Returns a persistent descriptor to the pool. No unmap, no invalidation:
  // this is exactly the weaker-safety trade the related work makes.
  void ReleasePersistentDescriptor(std::uint32_t core,
                                   const std::vector<DmaMapping>& mappings);

  struct DeviceCheckResult {
    bool allowed = false;  // the access proceeds (granted, or check skipped)
    bool granted = false;  // every page is covered by a live capability
    TimeNs check_ns = 0;   // device-side lookup cost
  };
  // kCapability device-side validation of `pages` device addresses starting
  // at `base` (descriptor fetch, Tx enqueue, or a harness's synthetic DMA).
  // `enforce = false` models the skip-capability-check device bug (the
  // injected bug of fsio_diff --bug skip-capability-check): the verdict is
  // ignored and the access proceeds anyway. Every access that proceeds is
  // reported to the safety oracle, so a post-revoke access records a
  // use-after-unmap the "capability.dma_after_revoke" invariant rejects.
  // In non-capability modes the IOMMU is the gate and this always allows.
  DeviceCheckResult DeviceCheckCapability(Iova base, std::uint64_t pages, TimeNs now,
                                          bool enforce = true);
  // The same check over a descriptor's mappings, one page each: the gate a
  // device runs when a descriptor enters its queues. Allowed only if every
  // mapping is; `check_ns` sums the lookups.
  DeviceCheckResult DeviceCheckCapability(const std::vector<DmaMapping>& mappings, TimeNs now);

  // Attaches a tracker recording the PTcache-L3 tag of every page mapped on
  // the Rx/Tx datapaths, in allocation order (Figures 2e/3e/7e/8e).
  void SetL3Tracker(ReuseDistanceTracker* tracker) { l3_tracker_ = tracker; }

  // Optional fault injection (deferred-flush delay; allocator faults are
  // injected in the allocators themselves and masked by the retry helpers).
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  // Observability: unmap spans, invalidation-wait spans, flush instants.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }
  // Optional end-to-end safety oracle: told about every logical map/unmap/
  // release so device accesses can be judged against driver intent.
  void SetSafetyOracle(SafetyOracle* oracle) { oracle_ = oracle; }
  // Makes `registry` the sink for hard failures (double unmap).
  void SetFailureSink(InvariantRegistry* registry) { invariants_ = registry; }
  // Makes `registry` the failure sink and registers this layer's checks
  // under `prefix`: chunk accounting, plus the capability table and
  // DMA-after-revoke checks in kCapability mode. Each check runs against
  // `current()` at check time, this DmaApi by default; a ProtectionDomain
  // passes its live stack's, so one registration follows every rebuild.
  void RegisterInvariants(InvariantRegistry* registry, const std::string& prefix = "",
                          std::function<DmaApi*()> current = nullptr);

  // True if every live chunk's unmap accounting is sane (unmapped never
  // exceeds mapped). Registered as the "dma.chunk_accounting" invariant.
  bool CheckChunkAccounting(std::string* detail) const;

  ProtectionMode mode() const { return config_.mode; }
  const DmaApiConfig& config() const { return config_; }

  // Number of IOVAs currently sitting in the deferred-flush queue (deferred
  // mode only): each is a window in which a device may still use freed pages.
  std::size_t deferred_pending() const { return deferred_queue_.size(); }

 private:
  struct Chunk {
    Iova base = 0;
    std::uint32_t pages = 0;
    std::uint32_t mapped = 0;    // cursor for Tx packing
    std::uint32_t unmapped = 0;
    std::uint32_t core = 0;
    bool huge = false;  // mapped by one 2 MB entry (F&S + hugepages)
  };
  // Per-core driver state, indexed by core.
  struct PerCore {
    std::uint64_t tx_chunk = 0;  // Tx packing cursor chunk (contiguous modes), 0 = none
    // kHugepagePersistent: pooled, permanently-mapped Rx descriptors and
    // Tx pages.
    std::deque<std::vector<DmaMapping>> rx_pool;
    std::deque<DmaMapping> tx_pool;
  };
  struct DeferredIova {
    Iova iova = 0;
    std::uint64_t pages = 0;
    std::uint32_t core = 0;
  };

  UnmapSemantics semantics() const { return UnmapSemanticsFor(config_.mode); }
  PerCore& Core(std::uint32_t core);
  // Allocates IOVA space with bounded retries against injected exhaustion.
  // Returns IovaAllocator::kInvalidIova only after all retries fail.
  Iova AllocIova(std::uint32_t core, std::uint64_t pages, TimeNs* cpu_ns);
  // Allocates a descriptor-sized contiguous IOVA chunk for `core`. Returns
  // its id, or 0 when IOVA space is exhausted.
  std::uint64_t NewChunk(std::uint32_t core, TimeNs* cpu_ns);
  // The one place the IO page table gains a mapping: a 4 KB PTE, or with
  // `huge` one 2 MB PT-L3 leaf, plus the oracle's map and backing records.
  // Datapath maps also record the PTcache-L3 tag, count dma.map_ops and
  // charge kMapPageCpuNs to *cpu_ns; ring maps pass cpu_ns = nullptr and
  // skip all three.
  void MapRange(Iova iova, PhysAddr frame, bool huge, TimeNs* cpu_ns);
  // Tells the oracle about `pages` identity-addressed pages a capability
  // grant opened to the device.
  void RecordGrant(PhysAddr base, std::uint64_t pages);
  // Charges a map call's CPU time to dma.cpu_ns and dma.map_cpu_ns.
  void ChargeMap(TimeNs cpu_ns);
  DmaMapping MapIntoChunk(std::uint32_t core, PhysAddr frame, TimeNs* cpu_ns);
  DmaMapping MapStandalone(std::uint32_t core, PhysAddr frame, TimeNs* cpu_ns);
  // True if `frames` is one 2 MB-aligned physically contiguous huge frame.
  static bool IsHugeBacked(const std::vector<PhysAddr>& frames);

  // UnmapDescriptor's datapaths; each returns the CPU time the call ends at.
  TimeNs RevokeCapabilities(const std::vector<DmaMapping>& mappings, TimeNs at);
  // Tears down the IO page-table entries; synchronous modes invalidate and
  // free each run's IOVAs, deferred mode queues them for the batched flush.
  TimeNs UnmapAndInvalidate(std::uint32_t core, const std::vector<DmaMapping>& mappings,
                            TimeNs at, UnmapResultInfo* out);
  // Deferred mode: one full flush, then every queued IOVA is freed.
  TimeNs FlushDeferredQueue(TimeNs t, UnmapResultInfo* out);
  // Submits one invalidation request and waits for completion, retrying
  // with exponential backoff on timeout and falling back to a full flush
  // when retries are exhausted. Advances *t (CPU time) and *requests.
  TimeNs SubmitInvalidationWithRetry(Iova base, std::uint64_t len, bool leaf_only, TimeNs* t,
                                     std::uint32_t* requests);
  // Submits a full flush once the CPU has paid the submit cost, counts the
  // request and spins until the IOMMU acknowledges; advances *t and
  // *requests and returns the completion. The flush covers this driver's
  // domain for a tenant driver (blowing away co-resident tenants' cached
  // translations is not its call to make), every domain for the host driver.
  TimeNs SubmitFlushAndWait(TimeNs* t, std::uint32_t* requests);
  // The CPU spins from *t until the invalidation hardware acknowledges at
  // `hw`; the wait is charged to dma.spin_ns.
  void SpinUntil(TimeNs hw, TimeNs* t);
  // Counts a duplicate completion and reports the hard invariant failure.
  void ReportDoubleUnmap(Iova base, std::uint64_t pages, std::uint64_t fresh, TimeNs at);
  // The core whose IOVA cache receives a free issued on `core` (applies the
  // migration fraction).
  std::uint32_t FreeTarget(std::uint32_t core);
  void HandleReclamation(const UnmapResult& result);
  // Releases chunk bookkeeping; frees the chunk IOVA once fully unmapped.
  void AccountChunkUnmap(std::uint32_t core, std::uint64_t chunk_id, std::uint32_t pages);

  DmaApiConfig config_;
  Rng rng_{0xfa57'5afeULL};
  IovaAllocator* iova_;
  IoPageTable* page_table_;
  Iommu* iommu_;
  std::unique_ptr<CapabilityTable> captable_;  // kCapability mode only
  ReuseDistanceTracker* l3_tracker_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  SafetyOracle* oracle_ = nullptr;
  InvariantRegistry* invariants_ = nullptr;
  TraceScope trace_;

  std::uint64_t next_chunk_id_ = 1;
  std::unordered_map<std::uint64_t, Chunk> chunks_;
  std::vector<PerCore> per_core_;
  std::deque<DeferredIova> deferred_queue_;

  Counter* map_ops_;
  Counter* unmap_ops_;
  Counter* inv_requests_submitted_;
  Counter* reclaim_invalidations_;
  Counter* deferred_flushes_;
  Counter* cpu_ns_total_;
  Counter* spin_ns_;
  Counter* map_cpu_ns_;
  Counter* inv_retries_;
  Counter* inv_timeouts_;
  Counter* inv_fallback_flushes_;
  Counter* fault_masked_;
  Counter* double_unmap_;
  Counter* alloc_failures_;
  Counter* deferred_flush_delays_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_DRIVER_DMA_API_H_

// IOMMU model: IOTLB, per-level IO page table caches, page-table walkers and
// the invalidation-queue interface.
//
// Translation follows §2.1 of the paper exactly:
//   * IOTLB hit → no memory access. The 4 KB entry is probed first, then the
//     2 MB one; both kinds of hit share one path (count, classify, memoize,
//     notify the oracle).
//   * IOTLB miss → the IOMMU climbs the PTcache ladder once, from the
//     deepest usable level (PTcache-L3, or PTcache-L2 when the leaf is a
//     2 MB PT-L3 entry) down to PTcache-L1, and walks only the uncached
//     suffix of the path, so a miss costs between 1 (PTcache-L3 hit: read
//     the PT-L4 entry) and 4 (all PTcaches miss) sequential memory reads.
//     With PTcaches disabled every level misses.
// Miss counters use the paper's hierarchical semantics: a level-i miss is
// counted only when all deeper levels also missed, so that
//   memory reads = m_IOTLB + m1 + m2 + m3.
//
// The invalidation queue exposes the VT-d option the F&S driver relies on:
// invalidate an IOVA range's IOTLB entries while *preserving* the page table
// caches (leaf_only = true).
//
// Multi-tenant operation: a DomainTable (src/tenant/domain.h) maps PASID-
// style protection-domain ids to per-domain page-table roots. All domains
// share the IOTLB, the PTcaches, the walkers and the invalidation queue;
// every cached entry's tag carries the owning domain id in bits 48..57, so a
// lookup by domain A can never hit an entry installed by domain B — unless
// the test-only `inject_untagged_iotlb` knob breaks the tagging, in which
// case the safety oracle's `dma_cross_domain_hit` invariant catches the
// breach. Domain 0 (the host domain) tags as 0: the single-tenant
// configuration computes exactly the same tags, set indices and counters as
// the pre-domain model.
//
// Safety accounting: every cached entry stores the id of the page-table page
// it points at. If a translation consumes a cached pointer to a page that
// has since been reclaimed, or an IOTLB entry for an IOVA that is no longer
// mapped, the IOMMU counts a safety violation — this is how the test suite
// proves that strict mode and F&S never let a device use stale state, and
// that deferred mode does.
#ifndef FASTSAFE_SRC_IOMMU_IOMMU_H_
#define FASTSAFE_SRC_IOMMU_IOMMU_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/faults/fault_injector.h"
#include "src/faults/safety_oracle.h"
#include "src/mem/address.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/tenant/domain.h"
#include "src/trace/tracer.h"

namespace fsio {

struct IommuConfig {
  // IOTLB geometry (default 64 entries, within the paper's likely range).
  std::uint32_t iotlb_sets = 16;
  std::uint32_t iotlb_ways = 4;
  bool ptcache_enabled = true;  // false models pre-PTcache IOMMUs (4 reads/miss)
  // Concurrent page-table walk contexts. The paper's fitted per-read cost
  // (lm ≈ 197 ns, close to a full DRAM access plus IOMMU processing)
  // indicates walks serialize through a single translation context.
  std::uint32_t num_walkers = 1;
  // Cost of the final (PT-L4 leaf) entry read. Leaf PTEs are written by the
  // CPU during dma_map microseconds before the DMA, so the IOMMU's snooped
  // read is typically served from the cache hierarchy, cheaper than the
  // cold non-leaf table reads.
  TimeNs leaf_pte_read_ns = 160;
  // Hardware processing time for one invalidation-queue request.
  TimeNs invalidation_hw_ns = 50;
  // Way-partitioned IOTLB (iotlb_partition=per_domain): insertion victims
  // are confined to the inserting domain's way partition, so one tenant's
  // traffic cannot evict another's entries (the IOTLB-SC defense). 1 = the
  // shared policy; clamped to iotlb_ways.
  std::uint32_t iotlb_partitions = 1;
  // Test-only cache-tagging bug: IOTLB tags omit the domain id, so one
  // domain's lookups can hit another domain's entries. The safety oracle
  // must catch the resulting dma_cross_domain_hit violations.
  bool inject_untagged_iotlb = false;
  bool operator==(const IommuConfig&) const = default;
};

// Namespace bit distinguishing 2 MB-granularity IOTLB tags from 4 KB ones
// (real IOTLBs keep both granularities; we share one array).
inline constexpr std::uint64_t kHugeIotlbTagBit = 1ULL << 62;

// Sentinel returned by InvalidateRange when an injected fault loses the
// request: the hardware never saw it, no cache state was dropped, and the
// caller must retry (the driver's timeout/backoff path).
inline constexpr TimeNs kInvalidationDropped = ~static_cast<TimeNs>(0);

// Outcome of one address translation.
struct TranslationResult {
  TimeNs done = 0;        // time the translated address is available
  PhysAddr phys = 0;
  bool fault = false;     // IOVA unmapped and not served by any (stale) cache
  bool iotlb_hit = false;
  int mem_reads = 0;      // 0 on IOTLB hit
  // Hierarchical miss flags (only meaningful when !iotlb_hit).
  bool l3_missed = false;
  bool l2_missed = false;
  bool l1_missed = false;
  bool stale_use = false;  // translation consumed stale cached state (any kind)
  // Stale-use classification (safety oracle evidence).
  bool stale_iotlb = false;               // IOTLB entry for an unmapped IOVA
  bool stale_ptcache = false;             // stale PTcache pointer consumed
  bool stale_ptcache_reclaimed = false;   // ... and its target was reclaimed
  bool cross_domain = false;              // served by another domain's entry
};

class Iommu {
 public:
  Iommu(const IommuConfig& config, MemorySystem* memory, IoPageTable* page_table,
        StatsRegistry* stats);

  // Translates `iova` for a DMA issued at time `start` on behalf of
  // `domain`. Concurrent misses on the same (domain, page) coalesce onto one
  // in-flight walk. Translating against a dead/unknown domain faults.
  // Defined inline below: a repeat hit on a plain entry returns without a
  // call.
  TranslationResult Translate(DomainId domain, Iova iova, TimeNs start);
  // Host-domain shorthand (the single-device configuration).
  TranslationResult Translate(Iova iova, TimeNs start) {
    return Translate(kHostDomain, iova, start);
  }

  // Invalidation-queue request covering [start, start + len) of `domain`'s
  // IOVA space: always drops the range's IOTLB entries; when `leaf_only` is
  // false, also drops the PTcache entries whose span intersects the range
  // (Linux strict-mode default). Returns the time the hardware completes the
  // request, given it was submitted at `at`. The caller (driver) models the
  // CPU-side wait.
  TimeNs InvalidateRange(DomainId domain, Iova start, std::uint64_t len, bool leaf_only,
                         TimeNs at);
  TimeNs InvalidateRange(Iova start, std::uint64_t len, bool leaf_only, TimeNs at) {
    return InvalidateRange(kHostDomain, start, len, leaf_only, at);
  }

  // Flushes every IOTLB and PTcache entry of every domain (global flush).
  TimeNs InvalidateAll(TimeNs at);

  // Domain-selective flush: drops every IOTLB and PTcache entry tagged with
  // `domain`, leaving all other domains' entries resident. Invalidating a
  // dead or never-allocated domain id is a safe no-op (returns `at`).
  TimeNs InvalidateDomain(DomainId domain, TimeNs at);

  // Must be called when a domain's page table reclaims a table page so
  // hardware caches drop pointers into it. F&S invokes this on the rare
  // reclamation; skipping it (see config of the driver) lets tests
  // demonstrate the resulting safety violation.
  void OnTablePageReclaimed(DomainId domain, const ReclaimedTablePage& page);
  void OnTablePageReclaimed(const ReclaimedTablePage& page) {
    OnTablePageReclaimed(kHostDomain, page);
  }

  // Domain management. AddDomain registers a tenant's page-table root and
  // switches the IOMMU into multi-domain operation (per-domain "tenant.<id>"
  // counters, owner tracking for eviction attribution and cross-domain
  // detection). RetireDomain marks the id dead; its cached entries may
  // linger until InvalidateDomain, but translations against it fault.
  DomainId AddDomain(IoPageTable* page_table);
  void RetireDomain(DomainId domain);
  // Crash recovery: installs a fresh page-table root for a live domain (the
  // hardware caches persist — exactly the hazard recovery must invalidate).
  void SetDomainPageTable(DomainId domain, IoPageTable* page_table);
  void SetDomainOracle(DomainId domain, SafetyOracle* oracle);

  const SetAssocCache& iotlb() const { return iotlb_; }
  const SetAssocCache& ptcache(int level) const { return ptcaches_[level - 1]; }

  // Optional fault injection (invalidation stalls/drops, walker latency
  // spikes). Safety-oracle observation is per domain (SetDomainOracle).
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  // Observability: page-walk spans, invalidation spans, stale-use instants.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

 private:
  struct PendingWalk {
    TimeNs done = 0;
    PhysAddr phys = 0;
  };

  // (domain-tagged page) -> in-flight walk: open addressing with linear
  // probing and backward-shift deletion. It starts at 2048 buckets (48 KiB,
  // room for 1024 keys at half load; the perfbench workloads peak near 730)
  // and doubles when a Put would pass half load.
  class PendingWalkTable {
   public:
    explicit PendingWalkTable(std::size_t buckets);
    const PendingWalk* Find(std::uint64_t key) const;
    void Put(std::uint64_t key, const PendingWalk& walk);  // insert or overwrite
    void Erase(std::uint64_t key);
    // Erases every entry for which pred(key, walk) holds.
    template <typename Pred>
    void EraseIf(Pred pred);
    void Clear();
    std::size_t size() const { return size_; }

   private:
    static constexpr std::uint64_t kEmpty = ~0ULL;  // never a domain-tagged page
    struct Bucket {
      std::uint64_t key = kEmpty;
      PendingWalk walk;
    };
    std::size_t HomeOf(std::uint64_t key) const;
    std::size_t Next(std::size_t i) const { return i + 1 == buckets_.size() ? 0 : i + 1; }
    // The bucket holding `key`, or the empty bucket ending its probe run.
    std::size_t Probe(std::uint64_t key) const;
    void EraseBucket(std::size_t hole);
    void Rehash(std::size_t buckets);

    std::vector<Bucket> buckets_;
    std::size_t size_ = 0;
  };

  // Memo of the last IOTLB hit, or of the hit that the entry a walk just
  // filled would give the page's next probe. Consecutive TLPs of one DMA
  // translate the same 4 KB page, so Translate can replay the hit
  // (identical counter, LRU and safety effects) without the domain lookup,
  // the tag search or the safety walk — valid only while neither the IOTLB
  // nor the page table has mutated, and cleared by every domain-table
  // change.
  static constexpr std::uint64_t kNoMemoPage = ~0ULL;
  struct RepeatMemo {
    std::uint64_t page = kNoMemoPage;      // 4 KB page number of the hit
    SetAssocCache::HitHandle entry = 0;    // hit IOTLB entry
    PhysAddr base = 0;                     // entry payload (region phys base)
    std::uint64_t offset_mask = 0;         // iova bits added to `base`
    bool huge = false;                     // hit was a 2 MB-granularity entry
    bool stale = false;                    // memoized !IsMapped() outcome
    bool cross_domain = false;             // memoized foreign-entry outcome
    // 4 KB entry, not stale, not cross-domain, single domain, no oracle:
    // the replay is the translation counter, the IOTLB hit and the result.
    bool plain = false;
    DomainId domain{};                     // domain the memo was formed for
    const IoPageTable* pt = nullptr;       // that domain's page table
    std::uint64_t iotlb_version = 0;
    std::uint64_t pt_version = 0;
  };

  // Per-domain counters ("tenant.<id>.*"), created lazily on the first
  // AddDomain so the single-tenant stats namespace is untouched.
  struct DomainCounters {
    Counter* translations = nullptr;
    Counter* iotlb_hits = nullptr;
    Counter* iotlb_misses = nullptr;
    Counter* iotlb_evictions = nullptr;    // this domain's entries evicted
    Counter* iotlb_invalidated = nullptr;  // entries dropped by selective flush
    Counter* inv_requests = nullptr;
  };

  // Translate without a usable repeat memo: domain lookup, IOTLB probes,
  // walk coalescing and the page walk.
  TranslationResult TranslateMemoMiss(DomainId domain, Iova iova, TimeNs start);
  // Replays a memoized hit that is not plain (2 MB entry, stale or cross-
  // domain outcome, per-domain counters, safety oracle).
  TranslationResult ReplayRepeat(DomainId domain, Iova iova, TimeNs start);
  // An IOTLB probe of `tag` (a 4 KB or, when `huge`, a 2 MB entry) hit
  // `handle` holding `base`: counts, classifies, memoizes and notifies.
  TranslationResult IotlbHit(DomainId domain, const DomainTable::Entry& dom,
                             DomainCounters* counters, Iova iova, TimeNs start,
                             std::uint64_t tag, SetAssocCache::HitHandle handle, PhysAddr base,
                             bool huge);
  // Arms the repeat memo for a hit on IOTLB entry `entry` (payload `base`)
  // whose classification was `stale` / `cross_domain`.
  void ArmRepeat(DomainId domain, const DomainTable::Entry& dom, const DomainCounters* counters,
                 Iova iova, SetAssocCache::HitHandle entry, PhysAddr base, bool huge, bool stale,
                 bool cross_domain);
  // Walks `dom`'s page table, fills the PTcaches and the IOTLB and arms the
  // repeat memo with the hit the filled entry gives the page's next TLP.
  TranslationResult WalkAndFill(DomainId domain, const DomainTable::Entry& dom,
                                DomainCounters* counters, Iova iova, TimeNs start);
  // Completion time of an invalidation-queue request submitted at `at`.
  TimeNs CompleteInvalidation(TimeNs at);
  // Reports the translation to a safety oracle (no-op when null).
  static void NotifyOracle(SafetyOracle* oracle, Iova iova, TimeNs now,
                           const TranslationResult& result);
  void ForgetRepeat() { repeat_.page = kNoMemoPage; }
  // Owner bookkeeping around IOTLB inserts (multi-domain only): attributes
  // the eviction to the victim's owner and records the new entry's owner.
  void NoteIotlbInsert(std::uint64_t tag, DomainId domain,
                       const std::optional<std::uint64_t>& evicted);
  void EnsureDomainCounters();
  // `domain`'s "tenant.<id>" counters; null in single-domain operation.
  DomainCounters* CountersOf(DomainId domain) {
    return domain.value < domain_counters_.size() ? &domain_counters_[domain.value] : nullptr;
  }
  // Domain field of `domain`'s IOTLB tags. The injected tagging bug drops it
  // from IOTLB tags only; the PTcache tags stay qualified (a walk never
  // crosses domains — the breach the bug models is a shared-TLB lookup
  // matching a foreign entry).
  std::uint64_t IotlbTagBits(DomainId domain) const {
    return config_.inject_untagged_iotlb ? 0 : DomainTagBits(domain);
  }

  IommuConfig config_;
  MemorySystem* memory_;
  FaultInjector* fault_injector_ = nullptr;
  StatsRegistry* stats_;
  TraceScope trace_;

  DomainTable domains_;

  SetAssocCache iotlb_;
  std::array<SetAssocCache, 3> ptcaches_;  // [0]=L1, [1]=L2, [2]=L3

  std::vector<TimeNs> walker_free_;
  PendingWalkTable pending_walks_;
  RepeatMemo repeat_;
  // False until the first 2 MB IOTLB entry is inserted: until then the 2 MB
  // tag namespace is empty, so its probes are skipped (a Translate still
  // counts the miss its probe would have taken).
  bool huge_iotlb_used_ = false;

  // Owner of each resident IOTLB entry, keyed by the entry's tag as stored.
  // Maintained only in multi-domain operation: it is the ground truth that
  // lets the oracle catch broken tagging (when tags are correct, the owner
  // is just DomainOfTag(tag)). Pruned against the cache when it outgrows it.
  std::unordered_map<std::uint64_t, DomainId> iotlb_owner_;
  std::vector<DomainCounters> domain_counters_;

  Counter* translations_;
  Counter* iotlb_miss_;
  std::array<Counter*, 3> ptcache_miss_;  // [0]=L1, [1]=L2, [2]=L3
  Counter* mem_reads_;
  Counter* faults_;
  Counter* inv_requests_;
  Counter* stale_iotlb_use_;
  Counter* stale_ptcache_use_;
  Counter* inv_dropped_;
  Counter* inv_stall_ns_;
  Counter* walk_stall_ns_;
  Counter* cross_domain_hits_;
};

inline TranslationResult Iommu::Translate(DomainId domain, Iova iova, TimeNs start) {
  // Repeat-hit fast path: consecutive TLPs of one DMA fall in the same 4 KB
  // page, so the hit would find the same entry and the safety walk would
  // return the same answer. Replay the memoized outcome — with the exact
  // counter and LRU effects of the probes it skips — as long as neither the
  // IOTLB nor the page table has mutated since the memo formed.
  if (PageNumber(iova) == repeat_.page && domain == repeat_.domain &&
      iotlb_.mutation_version() == repeat_.iotlb_version &&
      repeat_.pt->mutation_version() == repeat_.pt_version) {
    if (!repeat_.plain) {
      return ReplayRepeat(domain, iova, start);
    }
    translations_->Add();
    iotlb_.RepeatHit(repeat_.entry);
    TranslationResult out;
    out.iotlb_hit = true;
    out.phys = repeat_.base + (iova & (kPageSize - 1));
    out.done = start;
    return out;
  }
  return TranslateMemoMiss(domain, iova, start);
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_IOMMU_IOMMU_H_

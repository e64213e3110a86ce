#include "src/iommu/iommu.h"

#include <algorithm>
#include <string>

namespace fsio {

namespace {
// WalkAndFill prunes completed walks once the pending-walk table holds more
// keys than this.
constexpr std::size_t kPendingWalkPruneAbove = 8192;
// Initial pending-walk table size; Put doubles it past half load.
constexpr std::size_t kPendingWalkBuckets = 2048;
// IO page table caches. Sizes are not public; the paper estimates 64-128
// for PTcache-L3 (Fig. 2e thresholds) and small L1/L2 caches suffice.
constexpr std::uint32_t kPtcacheL1Entries = 32;
constexpr std::uint32_t kPtcacheL2Entries = 32;
constexpr std::uint32_t kPtcacheL3Entries = 128;
// Per-entry PTE read size (a 64-bit entry; memory rounds up to a line).
constexpr std::uint64_t kPteReadBytes = 8;
// IOMMU-side processing per walk step (request issue, entry decode), on
// top of the DRAM access. Calibrated so the effective per-read walk cost
// matches the paper's fitted lm ≈ 197 ns.
constexpr TimeNs kWalkStepOverheadNs = 90;

// IOTLB tag of `iova`'s 4 KB entry, or of its 2 MB entry when `huge`.
std::uint64_t IotlbTag(std::uint64_t tag_bits, Iova iova, bool huge) {
  return huge ? kHugeIotlbTagBit | tag_bits | LevelTag(iova, 3) : tag_bits | PageNumber(iova);
}
}  // namespace

Iommu::PendingWalkTable::PendingWalkTable(std::size_t buckets) : buckets_(buckets) {}

std::size_t Iommu::PendingWalkTable::HomeOf(std::uint64_t key) const {
  // Fibonacci hashing spreads runs of consecutive pages; the multiply-shift
  // maps the hash onto [0, buckets) for any bucket count.
  const std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(
      (static_cast<unsigned __int128>(h) * buckets_.size()) >> 64);
}

std::size_t Iommu::PendingWalkTable::Probe(std::uint64_t key) const {
  std::size_t i = HomeOf(key);
  while (buckets_[i].key != kEmpty && buckets_[i].key != key) {
    i = Next(i);
  }
  return i;
}

const Iommu::PendingWalk* Iommu::PendingWalkTable::Find(std::uint64_t key) const {
  const Bucket& b = buckets_[Probe(key)];
  return b.key == kEmpty ? nullptr : &b.walk;
}

void Iommu::PendingWalkTable::Put(std::uint64_t key, const PendingWalk& walk) {
  std::size_t i = Probe(key);
  if (buckets_[i].key == kEmpty) {
    if (2 * (size_ + 1) > buckets_.size()) {
      Rehash(2 * buckets_.size());
      i = Probe(key);
    }
    ++size_;
  }
  buckets_[i] = Bucket{key, walk};
}

void Iommu::PendingWalkTable::Erase(std::uint64_t key) {
  const std::size_t i = Probe(key);
  if (buckets_[i].key != kEmpty) {
    EraseBucket(i);
  }
}

void Iommu::PendingWalkTable::EraseBucket(std::size_t hole) {
  const std::size_t n = buckets_.size();
  // Cyclic distance from bucket a forward to bucket b.
  const auto dist = [n](std::size_t a, std::size_t b) { return b >= a ? b - a : b + n - a; };
  for (std::size_t j = Next(hole); buckets_[j].key != kEmpty; j = Next(j)) {
    // j's key may fill the hole iff the hole lies cyclically in [home, j).
    if (dist(HomeOf(buckets_[j].key), j) >= dist(hole, j)) {
      buckets_[hole] = buckets_[j];
      hole = j;
    }
  }
  buckets_[hole].key = kEmpty;
  --size_;
}

template <typename Pred>
void Iommu::PendingWalkTable::EraseIf(Pred pred) {
  // A backward shift moves unscanned keys only into the current bucket or
  // later ones (scanned keys may wrap round to the end and are re-tested),
  // so re-examining the current bucket after an erase visits every key.
  for (std::size_t i = 0; i < buckets_.size() && size_ > 0;) {
    if (buckets_[i].key != kEmpty && pred(buckets_[i].key, buckets_[i].walk)) {
      EraseBucket(i);
    } else {
      ++i;
    }
  }
}

void Iommu::PendingWalkTable::Clear() {
  for (Bucket& b : buckets_) {
    b.key = kEmpty;
  }
  size_ = 0;
}

void Iommu::PendingWalkTable::Rehash(std::size_t buckets) {
  std::vector<Bucket> old(buckets);
  old.swap(buckets_);
  for (const Bucket& b : old) {
    if (b.key != kEmpty) {
      buckets_[Probe(b.key)] = b;
    }
  }
}

Iommu::Iommu(const IommuConfig& config, MemorySystem* memory, IoPageTable* page_table,
             StatsRegistry* stats)
    : config_(config),
      memory_(memory),
      stats_(stats),
      domains_(page_table),
      iotlb_(config.iotlb_sets, config.iotlb_ways),
      ptcaches_{SetAssocCache(1, kPtcacheL1Entries), SetAssocCache(1, kPtcacheL2Entries),
                SetAssocCache(1, kPtcacheL3Entries)},
      walker_free_(config.num_walkers == 0 ? 1 : config.num_walkers, 0),
      pending_walks_(kPendingWalkBuckets),
      translations_(stats->Get("iommu.translations")),
      iotlb_miss_(stats->Get("iommu.iotlb_miss")),
      ptcache_miss_{stats->Get("iommu.ptcache_l1_miss"), stats->Get("iommu.ptcache_l2_miss"),
                    stats->Get("iommu.ptcache_l3_miss")},
      mem_reads_(stats->Get("iommu.mem_reads")),
      faults_(stats->Get("iommu.faults")),
      inv_requests_(stats->Get("iommu.inv_requests")),
      stale_iotlb_use_(stats->Get("iommu.stale_iotlb_use")),
      stale_ptcache_use_(stats->Get("iommu.stale_ptcache_use")),
      inv_dropped_(stats->Get("iommu.inv_dropped")),
      inv_stall_ns_(stats->Get("iommu.inv_stall_ns")),
      walk_stall_ns_(stats->Get("iommu.walk_stall_ns")),
      cross_domain_hits_(stats->Get("iommu.cross_domain_hits")) {
  if (config_.iotlb_partitions > 1) {
    iotlb_.EnableWayPartitioning(config_.iotlb_partitions, kDomainTagShift, kMaxDomains - 1);
  }
}

DomainId Iommu::AddDomain(IoPageTable* page_table) {
  const DomainId id = domains_.Add(page_table);
  EnsureDomainCounters();
  ForgetRepeat();
  return id;
}

void Iommu::RetireDomain(DomainId domain) {
  domains_.Retire(domain);
  ForgetRepeat();
}

void Iommu::SetDomainPageTable(DomainId domain, IoPageTable* page_table) {
  if (DomainTable::Entry* e = domains_.Find(domain); e != nullptr) {
    e->page_table = page_table;
    ForgetRepeat();
  }
}

void Iommu::SetDomainOracle(DomainId domain, SafetyOracle* oracle) {
  if (DomainTable::Entry* e = domains_.Find(domain); e != nullptr) {
    e->oracle = oracle;
    ForgetRepeat();
  }
}

void Iommu::EnsureDomainCounters() {
  while (domain_counters_.size() < domains_.size()) {
    const std::string prefix = "tenant." + std::to_string(domain_counters_.size()) + ".";
    DomainCounters c;
    c.translations = stats_->Get(prefix + "translations");
    c.iotlb_hits = stats_->Get(prefix + "iotlb_hits");
    c.iotlb_misses = stats_->Get(prefix + "iotlb_misses");
    c.iotlb_evictions = stats_->Get(prefix + "iotlb_evictions");
    c.iotlb_invalidated = stats_->Get(prefix + "iotlb_invalidated");
    c.inv_requests = stats_->Get(prefix + "inv_requests");
    domain_counters_.push_back(c);
  }
}

void Iommu::NoteIotlbInsert(std::uint64_t tag, DomainId domain,
                            const std::optional<std::uint64_t>& evicted) {
  if (evicted.has_value()) {
    if (auto it = iotlb_owner_.find(*evicted); it != iotlb_owner_.end()) {
      if (DomainCounters* owner = CountersOf(it->second); owner != nullptr) {
        owner->iotlb_evictions->Add();
      }
      iotlb_owner_.erase(it);
    }
  }
  iotlb_owner_[tag] = domain;
  if (iotlb_owner_.size() > 4 * iotlb_.capacity() + 1024) {
    // Entries dropped by range invalidations are not unregistered eagerly;
    // prune the ones no longer resident when the map outgrows the cache.
    std::erase_if(iotlb_owner_, [this](const auto& e) { return !iotlb_.Peek(e.first); });
  }
}

void Iommu::NotifyOracle(SafetyOracle* oracle, Iova iova, TimeNs now,
                         const TranslationResult& result) {
  if (oracle == nullptr) {
    return;
  }
  DeviceAccess access;
  access.translated = !result.fault;
  access.iotlb_hit = result.iotlb_hit;
  access.stale_iotlb = result.stale_iotlb;
  access.stale_ptcache_live = result.stale_ptcache && !result.stale_ptcache_reclaimed;
  access.stale_ptcache_reclaimed = result.stale_ptcache_reclaimed;
  access.cross_domain = result.cross_domain;
  access.phys = result.phys;
  access.phys_valid = !result.fault;
  oracle->OnDeviceAccess(iova, now, access);
}

TranslationResult Iommu::ReplayRepeat(DomainId domain, Iova iova, TimeNs start) {
  translations_->Add();
  if (DomainCounters* counters = CountersOf(domain); counters != nullptr) {
    counters->translations->Add();
    counters->iotlb_hits->Add();
  }
  TranslationResult out;
  out.iotlb_hit = true;
  out.phys = repeat_.base + (iova & repeat_.offset_mask);
  out.done = start;
  if (repeat_.huge) {
    iotlb_.NoteRepeatMiss();  // the 4 KB-granularity probe misses again
  }
  iotlb_.RepeatHit(repeat_.entry);
  if (repeat_.cross_domain) {
    out.cross_domain = true;
    cross_domain_hits_->Add();
  } else if (repeat_.stale) {
    out.stale_use = true;
    out.stale_iotlb = true;
    stale_iotlb_use_->Add();
    trace_.Instant("iommu", "stale_iotlb_use", start);
  }
  NotifyOracle(domains_.at(domain).oracle, iova, start, out);
  return out;
}

TranslationResult Iommu::IotlbHit(DomainId domain, const DomainTable::Entry& dom,
                                  DomainCounters* counters, Iova iova, TimeNs start,
                                  std::uint64_t tag, SetAssocCache::HitHandle handle,
                                  PhysAddr base, bool huge) {
  const std::uint64_t offset_mask = (huge ? LevelEntrySpan(3) : kPageSize) - 1;
  TranslationResult out;
  out.iotlb_hit = true;
  out.phys = base + (iova & offset_mask);
  out.done = start;
  // A foreign-owned entry is an isolation breach (possible only under the
  // injected tagging bug); otherwise apply the single-domain stale-mapping
  // check.
  DomainId owner = domain;
  if (counters != nullptr) {
    counters->iotlb_hits->Add();
    const auto it = iotlb_owner_.find(tag);
    owner = it != iotlb_owner_.end() ? it->second : DomainOfTag(tag);
  }
  if (owner != domain) {
    out.cross_domain = true;
    cross_domain_hits_->Add();
    trace_.Instant("iommu", "cross_domain_hit", start);
  } else if (!dom.page_table->IsMapped(iova)) {
    // Deferred-mode hazard: the device just used a mapping that the OS
    // already tore down.
    out.stale_iotlb = true;
    out.stale_use = true;
    stale_iotlb_use_->Add();
    trace_.Instant("iommu", "stale_iotlb_use", start);
  }
  ArmRepeat(domain, dom, counters, iova, handle, base, huge, out.stale_iotlb, out.cross_domain);
  NotifyOracle(dom.oracle, iova, start, out);
  return out;
}

void Iommu::ArmRepeat(DomainId domain, const DomainTable::Entry& dom,
                      const DomainCounters* counters, Iova iova, SetAssocCache::HitHandle entry,
                      PhysAddr base, bool huge, bool stale, bool cross_domain) {
  repeat_.page = PageNumber(iova);
  repeat_.entry = entry;
  repeat_.base = base;
  repeat_.offset_mask = (huge ? LevelEntrySpan(3) : kPageSize) - 1;
  repeat_.huge = huge;
  repeat_.stale = stale;
  repeat_.cross_domain = cross_domain;
  repeat_.plain = !huge && !stale && !cross_domain && counters == nullptr && dom.oracle == nullptr;
  repeat_.domain = domain;
  repeat_.pt = dom.page_table;
  repeat_.iotlb_version = iotlb_.mutation_version();
  repeat_.pt_version = dom.page_table->mutation_version();
}

TranslationResult Iommu::TranslateMemoMiss(DomainId domain, Iova iova, TimeNs start) {
  translations_->Add();
  const DomainTable::Entry* dom = domains_.Find(domain);
  if (dom == nullptr) {
    // Translation against a dead/unknown domain: the context entry is gone,
    // so the IOMMU faults the access (a safe outcome; nothing is cached).
    TranslationResult out;
    out.fault = true;
    out.done = start;
    faults_->Add();
    return out;
  }
  DomainCounters* const counters = CountersOf(domain);
  if (counters != nullptr) {
    counters->translations->Add();
  }
  const std::uint64_t iotlb_bits = IotlbTagBits(domain);
  SetAssocCache::HitHandle handle = 0;
  // The 4 KB entry first, then the 2 MB one (hugepage mappings).
  for (const bool huge : {false, true}) {
    const std::uint64_t tag = IotlbTag(iotlb_bits, iova, huge);
    if (huge && !huge_iotlb_used_) {
      iotlb_.NoteRepeatMiss();  // the empty 2 MB namespace misses
    } else if (auto hit = iotlb_.Lookup(tag, &handle); hit.has_value()) {
      return IotlbHit(domain, *dom, counters, iova, start, tag, handle, *hit, huge);
    }
  }

  // Coalesce with an in-flight walk for the same (domain, page), if any: the
  // request waits for that walk instead of starting its own.
  TranslationResult out;
  const std::uint64_t walk_key = DomainTagBits(domain) | PageNumber(iova);
  if (const PendingWalk* w = pending_walks_.Find(walk_key); w != nullptr && w->done > start) {
    out.phys = w->phys + (iova & (kPageSize - 1));
    out.done = w->done;
    NotifyOracle(dom->oracle, iova, start, out);
    return out;
  }

  iotlb_miss_->Add();
  if (counters != nullptr) {
    counters->iotlb_misses->Add();
  }
  out = WalkAndFill(domain, *dom, counters, iova, start);
  if (trace_.enabled()) {
    // One span per page walk: duration covers walker queueing plus the
    // sequential PTE reads, so clustered misses render as stacked spans.
    trace_.Complete("iommu", "walk", start, out.done, "mem_reads",
                    static_cast<double>(out.mem_reads), "stale",
                    out.stale_use ? 1.0 : 0.0);
    if (out.fault) {
      trace_.Instant("iommu", "fault", start);
    }
    if (out.stale_ptcache) {
      trace_.Instant("iommu", "stale_ptcache_use", start);
    }
  }
  NotifyOracle(dom->oracle, iova, start, out);
  return out;
}

TranslationResult Iommu::WalkAndFill(DomainId domain, const DomainTable::Entry& dom,
                                     DomainCounters* counters, Iova iova, TimeNs start) {
  const IoPageTable* const pt = dom.page_table;
  TranslationResult out;
  const std::uint64_t dbits = DomainTagBits(domain);
  const WalkResult walk = pt->Walk(iova);
  bool* const missed[3] = {&out.l1_missed, &out.l2_missed, &out.l3_missed};

  // Climb the page-table caches from the deepest usable level: PTcache-L3
  // points at the PT-L4 page, but a 2 MB mapping's leaf is its PT-L3 entry,
  // so there the deepest usable cache is PTcache-L2. Every level above the
  // first hit misses (all of them when PTcaches are disabled) and costs one
  // more sequential PTE read on top of the unavoidable leaf read.
  const int deepest = walk.huge ? 2 : 3;
  int reads = 1;
  int hit_level = 0;
  // The hit entry is refilled below through its handle: nothing touches
  // that cache between the lookup and the refill.
  SetAssocCache::HitHandle hit_handle = 0;
  for (int level = deepest; level >= 1; --level) {
    std::optional<std::uint64_t> cached;
    if (config_.ptcache_enabled) {
      cached = ptcaches_[level - 1].Lookup(dbits | LevelTag(iova, level), &hit_handle);
    }
    if (!cached.has_value()) {
      *missed[level - 1] = true;
      ptcache_miss_[level - 1]->Add();
      ++reads;
      continue;
    }
    hit_level = level;
    // A cached pointer that disagrees with the current walk path is stale;
    // if its target table page was reclaimed, hardware would walk freed
    // memory — the gravest class the safety oracle distinguishes. Payloads
    // carry the owning domain in the same field as the tag, so page-id
    // comparisons are immune to cross-instance page-id collisions between
    // tenants' tables.
    if (*cached != (dbits | walk.path_page_id[level])) {
      out.stale_use = true;
      out.stale_ptcache = true;
      out.stale_ptcache_reclaimed = !pt->IsLiveTablePage(StripDomainTag(*cached));
      stale_ptcache_use_->Add();
    }
    break;
  }

  // Claim the earliest-free walker and perform the sequential PTE reads.
  const auto walker = std::min_element(walker_free_.begin(), walker_free_.end());
  TimeNs t = std::max(*walker, start);
  // Non-leaf table reads: cold, from DRAM — one grouped memory-model call
  // for the whole dependent sequence instead of a call per PTE.
  t = memory_->ReadWalkSequence(t, reads - 1, kWalkStepOverheadNs, kPteReadBytes);
  // Leaf read: served from the cache hierarchy (recently written PTE).
  t += config_.leaf_pte_read_ns;
  if (fault_injector_ != nullptr) {
    // Injected walker contention: the walk's final read is delayed (DRAM
    // queueing, walker starvation), holding the walker context busy.
    if (const FaultDecision d = fault_injector_->Sample(FaultKind::kWalkerLatencySpike, start); d.fire) {
      t += d.magnitude_ns;
      walk_stall_ns_->Add(d.magnitude_ns);
    }
  }
  *walker = t;
  out.mem_reads = reads;
  mem_reads_->Add(static_cast<std::uint64_t>(reads));
  out.done = t;

  if (!walk.present) {
    if (out.stale_use) {
      // A stale cached pointer may expose the old mapping to the device; we
      // model it as a (flagged) successful translation to "somewhere".
      out.phys = 0;
      return out;
    }
    out.fault = true;
    faults_->Add();
    return out;
  }

  out.phys = walk.phys;
  if (config_.ptcache_enabled) {
    for (int level = 1; level <= deepest; ++level) {
      const std::uint64_t payload = dbits | walk.path_page_id[level];
      if (level == hit_level) {
        ptcaches_[level - 1].Refresh(hit_handle, payload);
      } else {
        ptcaches_[level - 1].Insert(dbits | LevelTag(iova, level), payload);
      }
    }
  }
  // One IOTLB entry covers the whole 4 KB or 2 MB mapping.
  const std::uint64_t tag = IotlbTag(IotlbTagBits(domain), iova, walk.huge);
  const std::uint64_t span = walk.huge ? LevelEntrySpan(3) : kPageSize;
  const PhysAddr base = walk.phys & ~(span - 1);
  SetAssocCache::HitHandle entry = 0;
  auto evicted = iotlb_.Insert(tag, base, &entry);
  huge_iotlb_used_ = huge_iotlb_used_ || walk.huge;
  if (counters != nullptr) {
    NoteIotlbInsert(tag, domain, evicted);
  }
  // The page's next probe would hit the entry just filled, owned by this
  // domain and mapped (the walk found it present): memoize that hit so the
  // DMA's next TLP replays it instead of re-probing and re-walking.
  ArmRepeat(domain, dom, counters, iova, entry, base, walk.huge, /*stale=*/false,
            /*cross_domain=*/false);
  pending_walks_.Put(dbits | PageNumber(iova), PendingWalk{t, walk.phys & ~(kPageSize - 1)});
  if (pending_walks_.size() > kPendingWalkPruneAbove) {
    // Prune completed walks so the table stays small.
    pending_walks_.EraseIf(
        [start](std::uint64_t, const PendingWalk& w) { return w.done <= start; });
  }
  return out;
}

TimeNs Iommu::CompleteInvalidation(TimeNs at) {
  // The hardware invalidation queue has hundreds of entries and a per-
  // request service time far below the CPU-side submit cost (~200 ns), so it
  // is never a serialization bottleneck; requests complete a fixed hardware
  // latency after submission. (Cores submit at out-of-order simulated times,
  // so a serialized free-pointer would create artificial cross-core waits.)
  TimeNs done = at + config_.invalidation_hw_ns;
  if (fault_injector_ != nullptr) {
    // Injected queue stall: the completion (wait descriptor write-back) is
    // delayed, e.g. by the walker/invalidation contention of "Bermuda
    // Triangle" fame. The caches were already invalidated — only the
    // CPU-visible completion is late. Every request kind can stall (a
    // global flush, the retry path's fallback, is not magically immune).
    if (const FaultDecision d = fault_injector_->Sample(FaultKind::kInvalidationStall, at); d.fire) {
      done += d.magnitude_ns;
      inv_stall_ns_->Add(d.magnitude_ns);
    }
  }
  return done;
}

TimeNs Iommu::InvalidateRange(DomainId domain, Iova start, std::uint64_t len, bool leaf_only,
                              TimeNs at) {
  inv_requests_->Add();
  if (len == 0) {
    return at;
  }
  if (DomainCounters* counters = CountersOf(domain); counters != nullptr) {
    counters->inv_requests->Add();
  }
  if (fault_injector_ != nullptr) {
    // Injected queue fault: the request is lost before the hardware services
    // it. No cache state is dropped — the caller must notice the missing
    // completion (timeout) and resubmit, or safety is genuinely broken.
    if (fault_injector_->Sample(FaultKind::kInvalidationDrop, at).fire) {
      inv_dropped_->Add();
      trace_.Instant("iommu", "inv_dropped", at);
      return kInvalidationDropped;
    }
  }
  const std::uint64_t dbits = DomainTagBits(domain);
  const std::uint64_t iotlb_bits = IotlbTagBits(domain);
  const Iova end = start + len - 1;
  iotlb_.InvalidateRange(IotlbTag(iotlb_bits, start, false), IotlbTag(iotlb_bits, end, false));
  if (huge_iotlb_used_) {
    // Hugepage-granularity IOTLB entries covering the range.
    iotlb_.InvalidateRange(IotlbTag(iotlb_bits, start, true), IotlbTag(iotlb_bits, end, true));
  }
  for (std::uint64_t page = PageNumber(start); page <= PageNumber(end); ++page) {
    pending_walks_.Erase(dbits | page);
  }
  if (!leaf_only) {
    for (int level = 1; level <= 3; ++level) {
      ptcaches_[level - 1].InvalidateRange(dbits | LevelTag(start, level),
                                           dbits | LevelTag(end, level));
    }
  }
  const TimeNs done = CompleteInvalidation(at);
  if (trace_.enabled()) {
    trace_.Complete("iommu", leaf_only ? "invalidate_leaf" : "invalidate_full", at, done,
                    "pages", static_cast<double>((len + kPageSize - 1) / kPageSize));
  }
  return done;
}

TimeNs Iommu::InvalidateAll(TimeNs at) {
  // A global flush is one invalidation-queue request; unlike a range request
  // it is never dropped — the wait descriptor always completes eventually.
  inv_requests_->Add();
  iotlb_.InvalidateAll();
  for (SetAssocCache& pc : ptcaches_) {
    pc.InvalidateAll();
  }
  pending_walks_.Clear();
  iotlb_owner_.clear();
  const TimeNs done = CompleteInvalidation(at);
  trace_.Complete("iommu", "invalidate_all", at, done);
  return done;
}

TimeNs Iommu::InvalidateDomain(DomainId domain, TimeNs at) {
  if (!domains_.IsLive(domain)) {
    // Unknown or retired id: no live context can install entries under it
    // and none of its lingering entries can ever be hit (translations by a
    // dead domain fault before the lookup). Safe no-op, by contract: no
    // counters, no cache mutation, no time consumed.
    return at;
  }
  inv_requests_->Add();
  const std::uint64_t dbits = DomainTagBits(domain);
  const std::uint64_t dropped = iotlb_.InvalidateMasked(kDomainFieldMask, dbits);
  for (SetAssocCache& pc : ptcaches_) {
    pc.InvalidateMasked(kDomainFieldMask, dbits);
  }
  pending_walks_.EraseIf(
      [dbits](std::uint64_t key, const PendingWalk&) { return (key & kDomainFieldMask) == dbits; });
  std::erase_if(iotlb_owner_, [domain](const auto& e) { return e.second == domain; });
  if (repeat_.domain == domain) {
    ForgetRepeat();
  }
  if (DomainCounters* counters = CountersOf(domain); counters != nullptr) {
    counters->inv_requests->Add();
    counters->iotlb_invalidated->Add(dropped);
  }
  const TimeNs done = CompleteInvalidation(at);
  if (trace_.enabled()) {
    trace_.Complete("iommu", "invalidate_domain", at, done, "domain",
                    static_cast<double>(domain.value), "dropped",
                    static_cast<double>(dropped));
  }
  return done;
}

void Iommu::OnTablePageReclaimed(DomainId domain, const ReclaimedTablePage& page) {
  // A level-L page is pointed at by PTcache-L(L-1) entries. Payloads are
  // domain-qualified, so only this domain's pointers to the page are dropped
  // (another tenant's table may reuse the same per-instance page id).
  if (page.level >= 2 && page.level <= 4) {
    ptcaches_[page.level - 2].InvalidateByPayload(DomainTagBits(domain) | page.page_id);
  }
}

}  // namespace fsio

#include "src/iommu/iommu.h"

#include <string>

namespace fsio {

namespace {
// WalkAndFill prunes completed walks once the pending-walk table holds more
// keys than this.
constexpr std::size_t kPendingWalkPruneAbove = 8192;
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
      ptcache_l1_(1, config.ptcache_l1_entries),
      ptcache_l2_(1, config.ptcache_l2_entries),
      ptcache_l3_(1, config.ptcache_l3_entries),
      walker_free_(config.num_walkers == 0 ? 1 : config.num_walkers, 0),
      pending_walks_(2 * (kPendingWalkPruneAbove + 1)),
      translations_(stats->Get("iommu.translations")),
      iotlb_miss_(stats->Get("iommu.iotlb_miss")),
      l1_miss_(stats->Get("iommu.ptcache_l1_miss")),
      l2_miss_(stats->Get("iommu.ptcache_l2_miss")),
      l3_miss_(stats->Get("iommu.ptcache_l3_miss")),
      mem_reads_(stats->Get("iommu.mem_reads")),
      faults_(stats->Get("iommu.faults")),
      inv_requests_(stats->Get("iommu.inv_requests")),
      stale_iotlb_use_(stats->Get("iommu.stale_iotlb_use")),
      stale_ptcache_use_(stats->Get("iommu.stale_ptcache_use")),
      inv_queue_wait_ns_(stats->Get("iommu.inv_queue_wait_ns")),
      inv_dropped_(stats->Get("iommu.inv_dropped")),
      inv_stall_ns_(stats->Get("iommu.inv_stall_ns")),
      walk_stall_ns_(stats->Get("iommu.walk_stall_ns")),
      cross_domain_hits_(stats->Get("iommu.cross_domain_hits")) {
  ptcaches_ = {&ptcache_l1_, &ptcache_l2_, &ptcache_l3_};
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
      if (it->second.value < domain_counters_.size()) {
        CountersFor(it->second).iotlb_evictions->Add();
      }
      iotlb_owner_.erase(it);
    }
  }
  iotlb_owner_[tag] = domain;
  if (iotlb_owner_.size() > 4 * iotlb_.capacity() + 1024) {
    // Entries dropped by range invalidations are not unregistered eagerly;
    // prune the ones no longer resident when the map outgrows the cache.
    for (auto it = iotlb_owner_.begin(); it != iotlb_owner_.end();) {
      if (!iotlb_.Peek(it->first).has_value()) {
        it = iotlb_owner_.erase(it);
      } else {
        ++it;
      }
    }
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
  const bool multi = domains_.multi_domain();
  if (multi) {
    CountersFor(domain).translations->Add();
  }
  TranslationResult out;
  out.iotlb_hit = true;
  out.phys = repeat_.base + (iova & repeat_.offset_mask);
  out.done = start;
  if (repeat_.huge) {
    iotlb_.NoteRepeatMiss();  // the 4 KB-granularity probe misses again
  }
  iotlb_.RepeatHit(repeat_.entry);
  if (multi) {
    CountersFor(domain).iotlb_hits->Add();
  }
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

TranslationResult Iommu::TranslateMemoMiss(DomainId domain, Iova iova, TimeNs start) {
  translations_->Add();
  TranslationResult out;
  DomainTable::Entry* dom = domains_.Find(domain);
  if (dom == nullptr || !dom->live) {
    // Translation against a dead/unknown domain: the context entry is gone,
    // so the IOMMU faults the access (a safe outcome; nothing is cached).
    out.fault = true;
    out.done = start;
    faults_->Add();
    return out;
  }
  IoPageTable* const pt = dom->page_table;
  SafetyOracle* const oracle = dom->oracle;
  const bool multi = domains_.multi_domain();
  if (multi) {
    CountersFor(domain).translations->Add();
  }
  const std::uint64_t dbits = DomainTagBits(domain);
  // The injected tagging bug drops the domain id from IOTLB tags only; the
  // PTcache tags stay qualified (a walk never crosses domains — the breach
  // the bug models is a shared-TLB lookup matching a foreign entry).
  const std::uint64_t iotlb_dbits = config_.inject_untagged_iotlb ? 0 : dbits;
  const std::uint64_t page = PageNumber(iova);

  // Classifies an IOTLB hit on `tag`: a foreign-owned entry is an isolation
  // breach (possible only under the injected tagging bug); otherwise apply
  // the single-domain stale-mapping check.
  const auto classify_hit = [&](std::uint64_t tag, bool* cross, bool* stale) {
    *cross = false;
    *stale = false;
    if (multi) {
      DomainId owner = DomainOfTag(tag);
      if (auto it = iotlb_owner_.find(tag); it != iotlb_owner_.end()) {
        owner = it->second;
      }
      if (owner != domain) {
        *cross = true;
        cross_domain_hits_->Add();
        trace_.Instant("iommu", "cross_domain_hit", start);
        return;
      }
    }
    if (!pt->IsMapped(iova)) {
      // Deferred-mode hazard: the device just used a mapping that the OS
      // already tore down.
      *stale = true;
      stale_iotlb_use_->Add();
      trace_.Instant("iommu", "stale_iotlb_use", start);
    }
  };
  const auto memoize = [&](SetAssocCache::HitHandle handle, PhysAddr base,
                           std::uint64_t offset_mask, bool huge, bool stale, bool cross) {
    repeat_.page = page;
    repeat_.entry = handle;
    repeat_.base = base;
    repeat_.offset_mask = offset_mask;
    repeat_.huge = huge;
    repeat_.stale = stale;
    repeat_.cross_domain = cross;
    repeat_.plain = !huge && !stale && !cross && !multi && oracle == nullptr;
    repeat_.domain = domain;
    repeat_.pt = pt;
    repeat_.iotlb_version = iotlb_.mutation_version();
    repeat_.pt_version = pt->mutation_version();
  };

  SetAssocCache::HitHandle handle = 0;
  if (auto hit = iotlb_.Lookup(iotlb_dbits | page, &handle); hit.has_value()) {
    out.iotlb_hit = true;
    out.phys = *hit + (iova & (kPageSize - 1));
    out.done = start;
    if (multi) {
      CountersFor(domain).iotlb_hits->Add();
    }
    classify_hit(iotlb_dbits | page, &out.cross_domain, &out.stale_iotlb);
    out.stale_use = out.stale_iotlb;
    memoize(handle, *hit, kPageSize - 1, false, out.stale_iotlb, out.cross_domain);
    NotifyOracle(oracle, iova, start, out);
    return out;
  }
  // 2 MB-granularity IOTLB entries (hugepage mappings).
  const std::uint64_t huge_tag = kHugeIotlbTagBit | iotlb_dbits | LevelTag(iova, 3);
  if (!huge_iotlb_used_) {
    iotlb_.NoteRepeatMiss();  // the empty 2 MB namespace misses
  } else if (auto hit = iotlb_.Lookup(huge_tag, &handle); hit.has_value()) {
    out.iotlb_hit = true;
    out.phys = *hit + (iova & (LevelEntrySpan(3) - 1));
    out.done = start;
    if (multi) {
      CountersFor(domain).iotlb_hits->Add();
    }
    classify_hit(huge_tag, &out.cross_domain, &out.stale_iotlb);
    out.stale_use = out.stale_iotlb;
    memoize(handle, *hit, LevelEntrySpan(3) - 1, true, out.stale_iotlb, out.cross_domain);
    NotifyOracle(oracle, iova, start, out);
    return out;
  }

  // Coalesce with an in-flight walk for the same (domain, page), if any: the
  // request waits for that walk instead of starting its own.
  if (const PendingWalk* w = pending_walks_.Find(dbits | page); w != nullptr && w->done > start) {
    out.phys = w->phys + (iova & (kPageSize - 1));
    out.done = w->done;
    NotifyOracle(oracle, iova, start, out);
    return out;
  }

  iotlb_miss_->Add();
  if (multi) {
    CountersFor(domain).iotlb_misses->Add();
  }
  out = WalkAndFill(domain, pt, iova, start);
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
  NotifyOracle(oracle, iova, start, out);
  return out;
}

TranslationResult Iommu::WalkAndFill(DomainId domain, IoPageTable* pt, Iova iova,
                                     TimeNs start) {
  TranslationResult out;
  const bool multi = domains_.multi_domain();
  const std::uint64_t dbits = DomainTagBits(domain);
  const std::uint64_t iotlb_dbits = config_.inject_untagged_iotlb ? 0 : dbits;
  const std::uint64_t page = PageNumber(iova);
  const WalkResult walk = pt->Walk(iova);

  // Consult the page-table caches, deepest level first; the first hit
  // determines how many sequential PTE reads the walk needs.
  int reads = 1;  // the leaf entry read is unavoidable
  bool stale = false;
  // A PTcache-L3 hit is refilled below through its handle: nothing touches
  // that cache between the lookup and the refill.
  bool l3_hit = false;
  SetAssocCache::HitHandle l3_handle = 0;
  // A cached pointer that disagrees with the current walk path is stale; if
  // its target table page was reclaimed, hardware would walk freed memory —
  // the gravest class the safety oracle distinguishes. Payloads carry the
  // owning domain in the same field as the tag, so page-id comparisons are
  // immune to cross-instance page-id collisions between tenants' tables.
  auto note_stale_ptcache = [&](std::uint64_t cached_payload) {
    stale = true;
    out.stale_ptcache = true;
    if (!pt->IsLiveTablePage(StripDomainTag(cached_payload))) {
      out.stale_ptcache_reclaimed = true;
    }
    stale_ptcache_use_->Add();
  };
  if (walk.huge) {
    // 2 MB mapping: the PT-L3 entry IS the leaf, so the deepest usable
    // cache is PTcache-L2.
    if (!config_.ptcache_enabled) {
      out.l2_missed = true;
      out.l1_missed = true;
      l2_miss_->Add();
      l1_miss_->Add();
      reads = 3;
    } else if (auto l2 = ptcache_l2_.Lookup(dbits | LevelTag(iova, 2)); l2.has_value()) {
      if (*l2 != (dbits | walk.path_page_id[2])) {
        note_stale_ptcache(*l2);
      }
    } else {
      out.l2_missed = true;
      l2_miss_->Add();
      reads = 2;
      if (auto l1 = ptcache_l1_.Lookup(dbits | LevelTag(iova, 1)); l1.has_value()) {
        if (*l1 != (dbits | walk.path_page_id[1])) {
          note_stale_ptcache(*l1);
        }
      } else {
        out.l1_missed = true;
        l1_miss_->Add();
        reads = 3;
      }
    }
  } else if (config_.ptcache_enabled) {
    if (auto l3 = ptcache_l3_.Lookup(dbits | LevelTag(iova, 3), &l3_handle); l3.has_value()) {
      l3_hit = true;
      if (*l3 != (dbits | walk.path_page_id[3])) {
        // The cached pointer leads to a reclaimed (or replaced) PT-L4 page:
        // hardware would read a stale entry.
        note_stale_ptcache(*l3);
      }
    } else {
      out.l3_missed = true;
      l3_miss_->Add();
      reads = 2;
      if (auto l2 = ptcache_l2_.Lookup(dbits | LevelTag(iova, 2)); l2.has_value()) {
        if (*l2 != (dbits | walk.path_page_id[2])) {
          note_stale_ptcache(*l2);
        }
      } else {
        out.l2_missed = true;
        l2_miss_->Add();
        reads = 3;
        if (auto l1 = ptcache_l1_.Lookup(dbits | LevelTag(iova, 1)); l1.has_value()) {
          if (*l1 != (dbits | walk.path_page_id[1])) {
            note_stale_ptcache(*l1);
          }
        } else {
          out.l1_missed = true;
          l1_miss_->Add();
          reads = 4;
        }
      }
    }
  } else {
    out.l3_missed = true;
    out.l2_missed = true;
    out.l1_missed = true;
    l3_miss_->Add();
    l2_miss_->Add();
    l1_miss_->Add();
    reads = 4;
  }

  // Claim the earliest-free walker and perform the sequential PTE reads.
  std::size_t walker = 0;
  for (std::size_t i = 1; i < walker_free_.size(); ++i) {
    if (walker_free_[i] < walker_free_[walker]) {
      walker = i;
    }
  }
  TimeNs t = walker_free_[walker] > start ? walker_free_[walker] : start;
  // Non-leaf table reads: cold, from DRAM — one grouped memory-model call
  // for the whole dependent sequence instead of a call per PTE.
  t = memory_->ReadWalkSequence(t, reads - 1, config_.walk_step_overhead_ns,
                                config_.pte_read_bytes);
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
  walker_free_[walker] = t;
  out.mem_reads = reads;
  mem_reads_->Add(static_cast<std::uint64_t>(reads));
  out.done = t;
  out.stale_use = stale;

  if (!walk.present) {
    if (stale) {
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
    ptcache_l1_.Insert(dbits | LevelTag(iova, 1), dbits | walk.path_page_id[1]);
    ptcache_l2_.Insert(dbits | LevelTag(iova, 2), dbits | walk.path_page_id[2]);
    if (l3_hit) {
      ptcache_l3_.Refresh(l3_handle, dbits | walk.path_page_id[3]);
    } else if (!walk.huge) {
      ptcache_l3_.Insert(dbits | LevelTag(iova, 3), dbits | walk.path_page_id[3]);
    }
  }
  if (walk.huge) {
    // One IOTLB entry covers the whole 2 MB mapping.
    const std::uint64_t tag = kHugeIotlbTagBit | iotlb_dbits | LevelTag(iova, 3);
    auto evicted = iotlb_.Insert(tag, walk.phys & ~(LevelEntrySpan(3) - 1));
    huge_iotlb_used_ = true;
    if (multi) {
      NoteIotlbInsert(tag, domain, evicted);
    }
  } else {
    const std::uint64_t tag = iotlb_dbits | page;
    auto evicted = iotlb_.Insert(tag, walk.phys & ~(kPageSize - 1));
    if (multi) {
      NoteIotlbInsert(tag, domain, evicted);
    }
  }
  pending_walks_.Put(dbits | page, PendingWalk{t, walk.phys & ~(kPageSize - 1)});
  if (pending_walks_.size() > kPendingWalkPruneAbove) {
    // Prune completed walks so the table stays small.
    pending_walks_.EraseIf(
        [start](std::uint64_t, const PendingWalk& w) { return w.done <= start; });
  }
  return out;
}

TimeNs Iommu::InvalidateRange(DomainId domain, Iova start, std::uint64_t len, bool leaf_only,
                              TimeNs at) {
  inv_requests_->Add();
  if (len == 0) {
    return at;
  }
  if (domains_.multi_domain() && domain.value < domain_counters_.size()) {
    CountersFor(domain).inv_requests->Add();
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
  const std::uint64_t iotlb_dbits = config_.inject_untagged_iotlb ? 0 : dbits;
  const Iova end = start + len - 1;
  iotlb_.InvalidateRange(iotlb_dbits | PageNumber(start), iotlb_dbits | PageNumber(end));
  if (huge_iotlb_used_) {
    // Hugepage-granularity IOTLB entries covering the range.
    iotlb_.InvalidateRange(kHugeIotlbTagBit | iotlb_dbits | LevelTag(start, 3),
                           kHugeIotlbTagBit | iotlb_dbits | LevelTag(end, 3));
  }
  for (std::uint64_t page = PageNumber(start); page <= PageNumber(end); ++page) {
    pending_walks_.Erase(dbits | page);
  }
  if (!leaf_only) {
    for (int level = 1; level <= 3; ++level) {
      ptcaches_[level - 1]->InvalidateRange(dbits | LevelTag(start, level),
                                            dbits | LevelTag(end, level));
    }
  }
  // The hardware invalidation queue has hundreds of entries and a per-
  // request service time far below the CPU-side submit cost (~200 ns), so it
  // is never a serialization bottleneck; requests complete a fixed hardware
  // latency after submission. (Cores submit at out-of-order simulated times,
  // so a serialized free-pointer would create artificial cross-core waits.)
  TimeNs done = at + config_.invalidation_hw_ns;
  if (fault_injector_ != nullptr) {
    // Injected queue stall: the completion (wait descriptor write-back) is
    // delayed, e.g. by the walker/invalidation contention of "Bermuda
    // Triangle" fame. The caches were already invalidated above — only the
    // CPU-visible completion is late.
    if (const FaultDecision d = fault_injector_->Sample(FaultKind::kInvalidationStall, at); d.fire) {
      done += d.magnitude_ns;
      inv_stall_ns_->Add(d.magnitude_ns);
    }
  }
  if (trace_.enabled()) {
    trace_.Complete("iommu", leaf_only ? "invalidate_leaf" : "invalidate_full", at, done,
                    "pages", static_cast<double>((len + kPageSize - 1) / kPageSize));
  }
  return done;
}

TimeNs Iommu::InvalidateAll(TimeNs at) {
  inv_requests_->Add();
  iotlb_.InvalidateAll();
  ptcache_l1_.InvalidateAll();
  ptcache_l2_.InvalidateAll();
  ptcache_l3_.InvalidateAll();
  pending_walks_.Clear();
  iotlb_owner_.clear();
  TimeNs done = at + config_.invalidation_hw_ns;
  if (fault_injector_ != nullptr) {
    // A global flush is still one invalidation-queue request: its completion
    // can stall like any other (the retry path's fallback flush is not
    // magically immune), but it is never dropped — the wait descriptor
    // always completes eventually.
    if (const FaultDecision d = fault_injector_->Sample(FaultKind::kInvalidationStall, at); d.fire) {
      done += d.magnitude_ns;
      inv_stall_ns_->Add(d.magnitude_ns);
    }
  }
  trace_.Complete("iommu", "invalidate_all", at, done);
  return done;
}

TimeNs Iommu::InvalidateDomain(DomainId domain, TimeNs at) {
  const DomainTable::Entry* dom = domains_.Find(domain);
  if (dom == nullptr || !dom->live) {
    // Unknown or retired id: no live context can install entries under it
    // and none of its lingering entries can ever be hit (translations by a
    // dead domain fault before the lookup). Safe no-op, by contract: no
    // counters, no cache mutation, no time consumed.
    return at;
  }
  inv_requests_->Add();
  const std::uint64_t dbits = DomainTagBits(domain);
  const std::uint64_t dropped = iotlb_.InvalidateMasked(kDomainFieldMask, dbits);
  for (SetAssocCache* pc : ptcaches_) {
    pc->InvalidateMasked(kDomainFieldMask, dbits);
  }
  pending_walks_.EraseIf(
      [dbits](std::uint64_t key, const PendingWalk&) { return (key & kDomainFieldMask) == dbits; });
  for (auto it = iotlb_owner_.begin(); it != iotlb_owner_.end();) {
    if (it->second == domain) {
      it = iotlb_owner_.erase(it);
    } else {
      ++it;
    }
  }
  if (repeat_.domain == domain) {
    ForgetRepeat();
  }
  if (domain.value < domain_counters_.size()) {
    CountersFor(domain).inv_requests->Add();
    CountersFor(domain).iotlb_invalidated->Add(dropped);
  }
  TimeNs done = at + config_.invalidation_hw_ns;
  if (fault_injector_ != nullptr) {
    if (const FaultDecision d = fault_injector_->Sample(FaultKind::kInvalidationStall, at); d.fire) {
      done += d.magnitude_ns;
      inv_stall_ns_->Add(d.magnitude_ns);
    }
  }
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
    ptcaches_[page.level - 2]->InvalidateByPayload(DomainTagBits(domain) | page.page_id);
  }
}

}  // namespace fsio

#include "src/driver/dma_api.h"

#include <algorithm>
#include <sstream>

namespace fsio {
namespace {

// One 2 MB PT-L3 leaf entry and the 4 KB pages behind it.
constexpr std::uint64_t kHugeSpan = LevelEntrySpan(3);
constexpr std::uint64_t kHugePages = kHugeSpan / kPageSize;

}  // namespace

DmaApi::DmaApi(const DmaApiConfig& config, IovaAllocator* iova, IoPageTable* page_table,
               Iommu* iommu, StatsRegistry* stats)
    : config_(config),
      iova_(iova),
      page_table_(page_table),
      iommu_(iommu),
      map_ops_(stats->Get("dma.map_ops")),
      unmap_ops_(stats->Get("dma.unmap_ops")),
      inv_requests_submitted_(stats->Get("dma.inv_requests")),
      reclaim_invalidations_(stats->Get("dma.reclaim_invalidations")),
      deferred_flushes_(stats->Get("dma.deferred_flushes")),
      cpu_ns_total_(stats->Get("dma.cpu_ns")),
      spin_ns_(stats->Get("dma.spin_ns")),
      map_cpu_ns_(stats->Get("dma.map_cpu_ns")),
      inv_retries_(stats->Get("dma.inv_retries")),
      inv_timeouts_(stats->Get("dma.inv_timeouts")),
      inv_fallback_flushes_(stats->Get("dma.inv_fallback_flushes")),
      fault_masked_(stats->Get("dma.fault_masked")),
      double_unmap_(stats->Get("dma.double_unmap")),
      alloc_failures_(stats->Get("dma.alloc_failures")),
      deferred_flush_delays_(stats->Get("dma.deferred_flush_delays")) {
  if (semantics() == UnmapSemantics::kRevokeCapability) {
    captable_ = std::make_unique<CapabilityTable>(config_.capability, stats);
  }
}

void DmaApi::RegisterInvariants(InvariantRegistry* registry, const std::string& prefix,
                                std::function<DmaApi*()> current) {
  invariants_ = registry;
  if (registry == nullptr) {
    return;
  }
  if (!current) {
    current = [this] { return this; };
  }
  registry->Register(prefix + "dma.chunk_accounting", [current](std::string* detail) {
    return current()->CheckChunkAccounting(detail);
  });
  if (captable_ != nullptr) {
    registry->Register(prefix + "capability.table_consistency", [current](std::string* detail) {
      return current()->captable_->CheckConsistency(detail);
    });
    // The capability mode's safety contract: once a capability is revoked,
    // no device access may land through it. Any use-after-unmap the oracle
    // records in this mode is exactly such a DMA-after-revoke.
    registry->Register(prefix + "capability.dma_after_revoke", [current](std::string* detail) {
      const SafetyOracle* oracle = current()->oracle_;
      if (oracle != nullptr && oracle->count(SafetyViolationKind::kUseAfterUnmap) != 0) {
        std::ostringstream os;
        os << oracle->count(SafetyViolationKind::kUseAfterUnmap)
           << " device access(es) through a revoked capability";
        *detail = os.str();
        return false;
      }
      return true;
    });
  }
}

bool DmaApi::CheckChunkAccounting(std::string* detail) const {
  for (const auto& [id, chunk] : chunks_) {
    if (chunk.unmapped > chunk.mapped) {
      if (detail != nullptr) {
        std::ostringstream os;
        os << "chunk " << id << " unmapped=" << chunk.unmapped << " > mapped=" << chunk.mapped;
        *detail = os.str();
      }
      return false;
    }
  }
  return true;
}

DmaApi::PerCore& DmaApi::Core(std::uint32_t core) {
  if (core >= per_core_.size()) {
    per_core_.resize(core + 1);
  }
  return per_core_[core];
}

Iova DmaApi::AllocIova(std::uint32_t core, std::uint64_t pages, TimeNs* cpu_ns) {
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Iova iova = iova_->Alloc(core, pages);
    *cpu_ns += config_.iova_alloc_cpu_ns;
    if (iova != IovaAllocator::kInvalidIova) {
      if (attempt > 0) {
        fault_masked_->Add();
      }
      return iova;
    }
    if (attempt >= config_.iova_alloc_max_retries) {
      // Genuinely exhausted (or the injected fault out-persisted the retry
      // budget): degrade gracefully — the caller returns an empty mapping
      // and the NIC simply lacks a descriptor for a while.
      alloc_failures_->Add();
      return IovaAllocator::kInvalidIova;
    }
  }
}

std::uint64_t DmaApi::NewChunk(std::uint32_t core, TimeNs* cpu_ns) {
  const Iova base = AllocIova(core, config_.pages_per_chunk, cpu_ns);
  if (base == IovaAllocator::kInvalidIova) {
    return 0;
  }
  const std::uint64_t id = next_chunk_id_++;
  Chunk& chunk = chunks_[id];
  chunk.base = base;
  chunk.pages = config_.pages_per_chunk;
  chunk.core = core;
  return id;
}

void DmaApi::MapRange(Iova iova, PhysAddr frame, bool huge, TimeNs* cpu_ns) {
  const std::uint64_t pages = huge ? kHugePages : 1;
  if (huge) {
    page_table_->MapHuge(iova, frame);
  } else {
    page_table_->Map(iova, frame);
  }
  if (oracle_ != nullptr) {
    oracle_->OnMap(iova, pages);
    oracle_->OnMapBacking(iova, pages, frame);
  }
  if (cpu_ns == nullptr) {
    return;  // descriptor ring: set-up work, not a datapath map
  }
  if (l3_tracker_ != nullptr) {
    l3_tracker_->Access(LevelTag(iova, 3));
  }
  map_ops_->Add();
  *cpu_ns += config_.map_page_cpu_ns;
}

void DmaApi::RecordGrant(PhysAddr base, std::uint64_t pages) {
  if (oracle_ == nullptr) {
    return;
  }
  for (std::uint64_t i = 0; i < pages; ++i) {
    const PhysAddr page = base + i * kPageSize;  // pass-through: iova == phys
    oracle_->OnMap(page, 1);
    oracle_->OnMapBacking(page, 1, page);
  }
}

void DmaApi::ChargeMap(TimeNs cpu_ns) {
  cpu_ns_total_->Add(cpu_ns);
  map_cpu_ns_->Add(cpu_ns);
}

std::uint32_t DmaApi::FreeTarget(std::uint32_t core) {
  if (config_.free_migration_fraction <= 0.0 || config_.num_cores <= 1) {
    return core;
  }
  if (!rng_.NextBool(config_.free_migration_fraction)) {
    return core;
  }
  return static_cast<std::uint32_t>(rng_.NextBelow(config_.num_cores));
}

DmaMapping DmaApi::MapStandalone(std::uint32_t core, PhysAddr frame, TimeNs* cpu_ns) {
  const DmaMapping m{AllocIova(core, 1, cpu_ns), frame, 0};
  if (m.iova != IovaAllocator::kInvalidIova) {
    MapRange(m.iova, frame, /*huge=*/false, cpu_ns);
  }
  return m;  // the caller checks the IOVA and drops a failed mapping
}

DmaMapping DmaApi::MapIntoChunk(std::uint32_t core, PhysAddr frame, TimeNs* cpu_ns) {
  PerCore& pc = Core(core);
  auto cursor = chunks_.find(pc.tx_chunk);
  if (cursor == chunks_.end() || cursor->second.mapped == cursor->second.pages) {
    // No cursor chunk, or it is exhausted: take a fresh one.
    const std::uint64_t id = NewChunk(core, cpu_ns);
    if (id == 0) {
      return DmaMapping{IovaAllocator::kInvalidIova, frame, 0};
    }
    pc.tx_chunk = id;
    cursor = chunks_.find(id);
  }
  Chunk& chunk = cursor->second;
  const DmaMapping m{chunk.base + static_cast<Iova>(chunk.mapped) * kPageSize, frame,
                     pc.tx_chunk};
  ++chunk.mapped;
  MapRange(m.iova, frame, /*huge=*/false, cpu_ns);
  return m;
}

DmaApi::MapResult DmaApi::MapPages(std::uint32_t core, const std::vector<PhysAddr>& frames) {
  MapResult out;
  out.mappings.reserve(frames.size());
  switch (semantics()) {
    case UnmapSemantics::kNoProtection:
      for (PhysAddr frame : frames) {
        out.mappings.push_back(DmaMapping{frame, frame, 0});
      }
      break;
    case UnmapSemantics::kRevokeCapability: {
      // Kernel bypass: no IOMMU programming — device addresses are physical.
      // One capability covers the whole descriptor buffer; its slot rides in
      // chunk_id so completions can name the entry they retire.
      const CapabilityTable::GrantResult g = captable_->Grant(frames);
      out.cpu_ns += g.cpu_ns;
      for (PhysAddr frame : frames) {
        out.mappings.push_back(DmaMapping{frame, frame, g.id.slot});
        RecordGrant(frame, 1);
      }
      map_ops_->Add();
      break;
    }
    case UnmapSemantics::kSyncInvalidate:
    case UnmapSemantics::kDeferredInvalidate:
    case UnmapSemantics::kReleaseOnly: {
      if (!UsesContiguousIovas(config_.mode)) {
        for (PhysAddr frame : frames) {
          const DmaMapping m = MapStandalone(core, frame, &out.cpu_ns);
          if (m.iova != IovaAllocator::kInvalidIova) {
            out.mappings.push_back(m);
          }
        }
        break;
      }
      // One fresh chunk per Rx descriptor (Fig. 4b): the descriptor's pages
      // occupy consecutive 4 KB slices of one contiguous IOVA range.
      const std::uint64_t id = NewChunk(core, &out.cpu_ns);
      if (id == 0) {
        break;  // no descriptor this round; the ring refills later
      }
      Chunk& chunk = chunks_[id];
      // F&S + hugepages (§5 future work): one PT-L3 leaf entry maps the
      // whole descriptor; one map call, one unmap, one IOTLB entry.
      chunk.huge = config_.use_hugepages && IsHugeBacked(frames);
      if (chunk.huge) {
        MapRange(chunk.base, frames[0], /*huge=*/true, &out.cpu_ns);
      }
      for (PhysAddr frame : frames) {
        const DmaMapping m{chunk.base + static_cast<Iova>(chunk.mapped) * kPageSize, frame, id};
        if (!chunk.huge) {
          MapRange(m.iova, frame, /*huge=*/false, &out.cpu_ns);
        }
        out.mappings.push_back(m);
        ++chunk.mapped;
      }
      break;
    }
  }
  ChargeMap(out.cpu_ns);
  return out;
}

DmaApi::MapResult DmaApi::MapPage(std::uint32_t core, PhysAddr frame) {
  const PageMapResult one = MapOnePage(core, frame);
  MapResult out;
  out.cpu_ns = one.cpu_ns;
  if (one.ok()) {
    out.mappings.push_back(one.mapping);
  }
  return out;
}

DmaApi::PageMapResult DmaApi::MapOnePage(std::uint32_t core, PhysAddr frame) {
  PageMapResult out;
  switch (semantics()) {
    case UnmapSemantics::kNoProtection:
      out.mapping = DmaMapping{frame, frame, 0};
      break;
    case UnmapSemantics::kRevokeCapability: {
      const CapabilityTable::GrantResult g = captable_->GrantRange(frame, 1);
      out.cpu_ns += g.cpu_ns;
      out.mapping = DmaMapping{frame, frame, g.id.slot};
      RecordGrant(frame, 1);
      map_ops_->Add();
      break;
    }
    case UnmapSemantics::kReleaseOnly: {
      // Tx pages also come from a permanently-mapped pool: the IOVA keeps
      // pointing at the recycled buffer page forever (weaker safety).
      std::deque<DmaMapping>& pool = Core(core).tx_pool;
      if (pool.empty()) {
        out.mapping = MapStandalone(core, frame, &out.cpu_ns);
        break;
      }
      out.mapping = pool.front();
      pool.pop_front();
      out.mapping.phys = frame;  // the buffer page is recycled behind the same IOVA
      if (oracle_ != nullptr) {
        oracle_->OnMap(out.mapping.iova, 1);  // logically re-acquired by the driver
      }
      break;
    }
    case UnmapSemantics::kSyncInvalidate:
    case UnmapSemantics::kDeferredInvalidate:
      // In contiguous modes the page is placed at the per-core chunk cursor.
      out.mapping = UsesContiguousIovas(config_.mode) ? MapIntoChunk(core, frame, &out.cpu_ns)
                                                      : MapStandalone(core, frame, &out.cpu_ns);
      break;
  }
  ChargeMap(out.cpu_ns);
  return out;
}

Iova DmaApi::MapPersistent(std::uint32_t core, const std::vector<PhysAddr>& frames) {
  switch (semantics()) {
    case UnmapSemantics::kNoProtection:
      return frames.empty() ? 0 : frames.front();
    case UnmapSemantics::kRevokeCapability:
      // Descriptor rings get a never-revoked capability over the region the
      // device fetches from (identity-addressed, like the kOff ring region).
      if (frames.empty()) {
        return 0;
      }
      captable_->GrantRange(frames.front(), frames.size());
      RecordGrant(frames.front(), frames.size());
      return frames.front();
    case UnmapSemantics::kSyncInvalidate:
    case UnmapSemantics::kDeferredInvalidate:
    case UnmapSemantics::kReleaseOnly:
      break;
  }
  TimeNs cpu_ns = 0;  // ring set-up is not charged to any core
  const Iova base = AllocIova(core, frames.size(), &cpu_ns);
  if (base == IovaAllocator::kInvalidIova) {
    return base;
  }
  // Ring frames need not be physically contiguous: one 4 KB map per page.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    MapRange(base + static_cast<Iova>(i) * kPageSize, frames[i], /*huge=*/false, nullptr);
  }
  return base;
}

bool DmaApi::IsHugeBacked(const std::vector<PhysAddr>& frames) {
  if (frames.size() != kHugePages || (frames[0] & (kHugeSpan - 1)) != 0) {
    return false;
  }
  for (std::size_t i = 1; i < frames.size(); ++i) {
    if (frames[i] != frames[0] + static_cast<PhysAddr>(i) * kPageSize) {
      return false;
    }
  }
  return true;
}

DmaApi::MapResult DmaApi::AcquirePersistentDescriptor(
    std::uint32_t core, const std::function<PhysAddr()>& alloc_huge) {
  MapResult out;
  std::deque<std::vector<DmaMapping>>& pool = Core(core).rx_pool;
  if (!pool.empty()) {
    out.mappings = std::move(pool.front());
    pool.pop_front();
    // Pool hit: no mapping work at all — the entire point of the scheme.
    // Rx descriptors keep their original frames across the pool, so the
    // recorded backing (from the initial map) stays accurate; no update.
    if (oracle_ != nullptr && !out.mappings.empty()) {
      oracle_->OnMap(out.mappings.front().iova, out.mappings.size());
    }
    return out;
  }
  const PhysAddr huge = alloc_huge();
  const Iova base = AllocIova(core, kHugePages, &out.cpu_ns);
  if (base != IovaAllocator::kInvalidIova) {
    MapRange(base, huge, /*huge=*/true, &out.cpu_ns);
    out.mappings.reserve(kHugePages);
    for (std::uint64_t i = 0; i < kHugePages; ++i) {
      out.mappings.push_back(DmaMapping{base + i * kPageSize, huge + i * kPageSize, 0});
    }
  }
  ChargeMap(out.cpu_ns);
  return out;
}

void DmaApi::ReleasePersistentDescriptor(std::uint32_t core,
                                         const std::vector<DmaMapping>& mappings) {
  // Deliberately no unmap and no invalidation: the device keeps access.
  // The oracle records the logical release, so any device access between
  // release and the next acquire is counted as use-after-release.
  if (oracle_ != nullptr && !mappings.empty()) {
    oracle_->OnRelease(mappings.front().iova, mappings.size());
  }
  Core(core).rx_pool.push_back(mappings);
}

DmaApi::DeviceCheckResult DmaApi::DeviceCheckCapability(Iova base, std::uint64_t pages,
                                                        TimeNs now, bool enforce) {
  DeviceCheckResult out;
  if (captable_ == nullptr) {
    out.allowed = true;  // non-capability modes: the IOMMU is the gate
    out.granted = true;
    return out;
  }
  out.granted = true;
  for (std::uint64_t i = 0; i < pages; ++i) {
    const CapabilityTable::CheckResult c = captable_->Check(base + i * kPageSize);
    out.check_ns += c.check_ns;
    if (!c.granted) {
      out.granted = false;
    }
  }
  out.allowed = out.granted || !enforce;
  if (out.allowed && oracle_ != nullptr) {
    // The access proceeds: report it so a skipped check on a revoked buffer
    // records the use-after-unmap the dma_after_revoke invariant rejects.
    for (std::uint64_t i = 0; i < pages; ++i) {
      DeviceAccess access;
      access.translated = true;
      access.phys = base + i * kPageSize;  // pass-through: the address is physical
      access.phys_valid = true;
      oracle_->OnDeviceAccess(base + i * kPageSize, now, access);
    }
  }
  return out;
}

DmaApi::DeviceCheckResult DmaApi::DeviceCheckCapability(const std::vector<DmaMapping>& mappings,
                                                        TimeNs now) {
  DeviceCheckResult out;
  out.allowed = true;
  out.granted = true;
  for (const DmaMapping& m : mappings) {
    const DeviceCheckResult r = DeviceCheckCapability(m.iova, 1, now);
    out.check_ns += r.check_ns;
    out.allowed = out.allowed && r.allowed;
    out.granted = out.granted && r.granted;
  }
  return out;
}

DmaApi::UnmapResultInfo DmaApi::UnmapDescriptor(std::uint32_t core,
                                                const std::vector<DmaMapping>& mappings,
                                                TimeNs at) {
  UnmapResultInfo out;
  if (mappings.empty()) {
    return out;
  }
  TimeNs t = at;
  switch (semantics()) {
    case UnmapSemantics::kNoProtection:
      return out;
    case UnmapSemantics::kRevokeCapability:
      t = RevokeCapabilities(mappings, at);
      out.hw_done = t;  // the revoke (and any quiesce) completes synchronously
      break;
    case UnmapSemantics::kReleaseOnly: {
      // Nothing is unmapped or invalidated; buffers return to the pool still
      // device-accessible.
      std::deque<DmaMapping>& pool = Core(core).tx_pool;
      for (const DmaMapping& m : mappings) {
        if (oracle_ != nullptr) {
          oracle_->OnRelease(m.iova, 1);
        }
        pool.push_back(m);
      }
      t += 20 * mappings.size();
      break;
    }
    case UnmapSemantics::kSyncInvalidate:
    case UnmapSemantics::kDeferredInvalidate:
      t = UnmapAndInvalidate(core, mappings, at, &out);
      if (trace_.enabled() && t > at) {
        trace_.Complete("driver", "unmap", at, t, "pages",
                        static_cast<double>(mappings.size()), "inv_reqs",
                        static_cast<double>(out.invalidation_requests));
      }
      break;
  }
  out.cpu_ns = t - at;
  cpu_ns_total_->Add(out.cpu_ns);
  return out;
}

TimeNs DmaApi::RevokeCapabilities(const std::vector<DmaMapping>& mappings, TimeNs at) {
  // Revoke each owning capability once. The revoke is synchronous: an
  // armed entry (one the device checked) charges the bounded in-flight
  // quiesce, so by the time this call returns no descriptor can pass a
  // check against the dying entry — the strict property without any
  // IOMMU invalidation.
  std::vector<CapabilityId> ids;
  for (const DmaMapping& m : mappings) {
    const CapabilityId id = captable_->Lookup(m.iova);
    if (id.slot == 0) {
      // No live owner: a duplicate completion already retired this page.
      ReportDoubleUnmap(m.iova, 1, 0, at);
      continue;
    }
    if (oracle_ != nullptr) {
      oracle_->OnUnmap(m.iova, 1);
    }
    if (std::none_of(ids.begin(), ids.end(),
                     [&id](const CapabilityId& k) { return k.slot == id.slot; })) {
      ids.push_back(id);
    }
  }
  TimeNs t = at;
  for (const CapabilityId& id : ids) {
    t += captable_->Revoke(id).cpu_ns;
    unmap_ops_->Add();
  }
  if (trace_.enabled() && t > at) {
    trace_.Complete("driver", "cap_revoke", at, t, "pages", static_cast<double>(mappings.size()),
                    "caps", static_cast<double>(ids.size()));
  }
  return t;
}

TimeNs DmaApi::UnmapAndInvalidate(std::uint32_t core, const std::vector<DmaMapping>& mappings,
                                  TimeNs at, UnmapResultInfo* out) {
  const bool deferred = semantics() == UnmapSemantics::kDeferredInvalidate;
  const bool preserve = PreservesPtCaches(config_.mode);
  const bool batch = UsesContiguousIovas(config_.mode);
  TimeNs t = at;

  // Group the descriptor's mappings into maximal contiguous runs. Only
  // chunk-allocated IOVAs are known-contiguous; standalone IOVAs always form
  // single-page runs (Fig. 6a vs 6b).
  for (std::size_t i = 0, j = 0; i < mappings.size(); i = j) {
    const std::uint64_t chunk_id = mappings[i].chunk_id;
    j = i + 1;
    if (batch && chunk_id != 0) {
      while (j < mappings.size() && mappings[j].chunk_id == chunk_id &&
             mappings[j].iova == mappings[j - 1].iova + kPageSize) {
        ++j;
      }
    }
    const Iova run_base = mappings[i].iova;
    const std::uint64_t run_pages = j - i;

    // One unmap call for the whole run (Linux unmaps per page; the run is a
    // single page there, so the semantics coincide).
    const auto chunk = chunk_id != 0 ? chunks_.find(chunk_id) : chunks_.end();
    const bool huge_run = chunk != chunks_.end() && chunk->second.huge;
    const UnmapResult r = page_table_->Unmap(run_base, run_pages * kPageSize);
    HandleReclamation(r);
    if (r.unmapped_pages < run_pages) {
      // Some (or all) of the run was already torn down: a duplicate
      // completion reached this unmap. Report the hard invariant failure
      // and account only what this call actually unmapped, so the chunk's
      // books and the IOVA allocator are not corrupted (and, in deferred
      // mode, no IOVA is queued for freeing twice).
      ReportDoubleUnmap(run_base, run_pages, r.unmapped_pages, at);
      if (r.unmapped_pages == 0) {
        continue;  // nothing new unmapped: no invalidation, no IOVA free
      }
    }
    if (oracle_ != nullptr) {
      oracle_->OnUnmap(run_base, run_pages);
    }
    unmap_ops_->Add();
    // A huge mapping clears one PT-L3 leaf entry; 4 KB runs clear one PTE
    // per page.
    t += huge_run ? config_.unmap_page_cpu_ns : config_.unmap_page_cpu_ns * run_pages;
    if (deferred) {
      deferred_queue_.push_back(DeferredIova{run_base, run_pages, core});
      continue;
    }

    // One invalidation-queue request per run; strict Linux issues one per
    // page because its IOVAs are not contiguous. Lost or stalled requests
    // are retried with backoff (see SubmitInvalidationWithRetry) so the
    // completion below is guaranteed.
    const bool leaf_only =
        preserve && (!r.reclaimed_any() || config_.inject_skip_reclaim_invalidation);
    const TimeNs hw = SubmitInvalidationWithRetry(run_base, run_pages * kPageSize, leaf_only,
                                                  &t, &out->invalidation_requests);
    out->hw_done = std::max(out->hw_done, hw);

    // Release the IOVAs.
    if (chunk_id != 0) {
      AccountChunkUnmap(core, chunk_id, static_cast<std::uint32_t>(r.unmapped_pages));
    } else {
      for (std::size_t k = i; k < j; ++k) {
        iova_->Free(FreeTarget(core), mappings[k].iova, 1);
      }
    }
  }
  if (deferred && deferred_queue_.size() >= config_.deferred_flush_threshold) {
    if (fault_injector_ != nullptr &&
        deferred_queue_.size() < 4 * config_.deferred_flush_threshold &&
        fault_injector_->Sample(FaultKind::kDeferredFlushDelay, t).fire) {
      // Flush postponed (timer starvation): every queued IOVA's
      // use-after-unmap window stretches until the next flush attempt.
      deferred_flush_delays_->Add();
    } else {
      t = FlushDeferredQueue(t, out);
    }
  }
  return t;
}

TimeNs DmaApi::FlushDeferredQueue(TimeNs t, UnmapResultInfo* out) {
  const TimeNs flush_start = t;
  // The deferred flush-queue drain is a full flush in Linux, and the drain
  // waits for it to complete before the IOVAs are reused.
  out->hw_done = SubmitFlushAndWait(&t, &out->invalidation_requests);
  if (trace_.enabled()) {
    trace_.Complete("driver", "deferred_flush", flush_start, t, "iovas",
                    static_cast<double>(deferred_queue_.size()));
  }
  for (const DeferredIova& d : deferred_queue_) {
    iova_->Free(FreeTarget(d.core), d.iova, d.pages);
  }
  deferred_queue_.clear();
  deferred_flushes_->Add();
  return t;
}

TimeNs DmaApi::SubmitInvalidationWithRetry(Iova base, std::uint64_t len, bool leaf_only,
                                           TimeNs* t, std::uint32_t* requests) {
  TimeNs backoff = config_.inv_retry_backoff_ns;
  for (std::uint32_t attempt = 0; attempt <= config_.inv_max_retries; ++attempt) {
    *t += config_.inv_submit_cpu_ns;
    const TimeNs hw = iommu_->InvalidateRange(config_.domain, base, len, leaf_only, *t);
    inv_requests_submitted_->Add();
    ++*requests;
    if (hw != kInvalidationDropped && hw <= *t + config_.inv_wait_timeout_ns) {
      if (hw > *t) {
        trace_.Complete("driver", "inv_wait", *t, hw);
      }
      SpinUntil(hw, t);  // the CPU spins until the IOMMU acknowledges
      return hw;
    }
    // No completion within the wait budget: the request was lost, or the
    // queue is stalled beyond the deadline. Charge the full timed-out wait,
    // back off, resubmit. (Resubmitting after a stall is harmless — the
    // stalled request already dropped the cache entries.)
    inv_timeouts_->Add();
    trace_.Instant("driver", "inv_timeout", *t);
    SpinUntil(*t + config_.inv_wait_timeout_ns, t);
    if (attempt == config_.inv_max_retries) {
      break;
    }
    inv_retries_->Add();
    *t += backoff;
    backoff *= 2;
  }
  // Retry budget exhausted: fall back to a full flush. The flush is a
  // single always-delivered command, so safety holds even when every
  // per-range request was lost.
  inv_fallback_flushes_->Add();
  trace_.Instant("driver", "inv_fallback_flush", *t);
  return SubmitFlushAndWait(t, requests);
}

TimeNs DmaApi::SubmitFlushAndWait(TimeNs* t, std::uint32_t* requests) {
  *t += config_.inv_submit_cpu_ns;
  const TimeNs hw = config_.domain.value != 0 ? iommu_->InvalidateDomain(config_.domain, *t)
                                              : iommu_->InvalidateAll(*t);
  inv_requests_submitted_->Add();
  ++*requests;
  SpinUntil(hw, t);
  return hw;
}

void DmaApi::SpinUntil(TimeNs hw, TimeNs* t) {
  if (hw > *t) {
    spin_ns_->Add(hw - *t);
    *t = hw;
  }
}

void DmaApi::ReportDoubleUnmap(Iova base, std::uint64_t pages, std::uint64_t fresh, TimeNs at) {
  double_unmap_->Add();
  if (invariants_ != nullptr) {
    std::ostringstream os;
    os << "iova=0x" << std::hex << base << std::dec << " pages=" << pages
       << " freshly unmapped=" << fresh;
    invariants_->ReportFailure("dma.double_unmap", os.str(), at);
  }
}

void DmaApi::HandleReclamation(const UnmapResult& result) {
  if (!result.reclaimed_any() || iommu_ == nullptr) {
    return;
  }
  if (config_.inject_skip_reclaim_invalidation) {
    return;  // injected bug: stale PTcache pointers survive (tests catch it)
  }
  for (const ReclaimedTablePage& page : result.reclaimed) {
    iommu_->OnTablePageReclaimed(config_.domain, page);
    reclaim_invalidations_->Add();
  }
}

void DmaApi::AccountChunkUnmap(std::uint32_t core, std::uint64_t chunk_id, std::uint32_t pages) {
  auto it = chunks_.find(chunk_id);
  if (it == chunks_.end()) {
    return;
  }
  Chunk& chunk = it->second;
  chunk.unmapped += pages;
  PerCore& owner = Core(chunk.core);
  const bool is_tx_cursor = owner.tx_chunk == chunk_id;
  const bool fully_mapped = chunk.mapped == chunk.pages || !is_tx_cursor;
  if (fully_mapped && chunk.unmapped >= chunk.mapped) {
    iova_->Free(FreeTarget(core), chunk.base, chunk.pages);
    if (is_tx_cursor) {
      owner.tx_chunk = 0;
    }
    chunks_.erase(it);
  }
}

}  // namespace fsio

#include "src/driver/dma_api.h"

#include <sstream>

namespace fsio {

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
  if (config_.mode == ProtectionMode::kCapability) {
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

TimeNs DmaApi::SubmitInvalidationWithRetry(Iova base, std::uint64_t len, bool leaf_only,
                                           TimeNs* t, std::uint32_t* requests) {
  TimeNs backoff = config_.inv_retry_backoff_ns;
  for (std::uint32_t attempt = 0; attempt <= config_.inv_max_retries; ++attempt) {
    const TimeNs submit = *t + config_.inv_submit_cpu_ns;
    const TimeNs hw = iommu_->InvalidateRange(config_.domain, base, len, leaf_only, submit);
    inv_requests_submitted_->Add();
    ++*requests;
    *t = submit;
    if (hw != kInvalidationDropped && hw <= *t + config_.inv_wait_timeout_ns) {
      if (hw > *t) {
        spin_ns_->Add(hw - *t);
        trace_.Complete("driver", "inv_wait", *t, hw);
        *t = hw;  // the CPU spins until the IOMMU acknowledges
      }
      return hw;
    }
    // No completion within the wait budget: the request was lost, or the
    // queue is stalled beyond the deadline. Charge the full timed-out wait,
    // back off, resubmit. (Resubmitting after a stall is harmless — the
    // stalled request already dropped the cache entries.)
    inv_timeouts_->Add();
    trace_.Instant("driver", "inv_timeout", *t);
    spin_ns_->Add(config_.inv_wait_timeout_ns);
    *t += config_.inv_wait_timeout_ns;
    if (attempt == config_.inv_max_retries) {
      break;
    }
    inv_retries_->Add();
    *t += backoff;
    backoff *= 2;
  }
  // Retry budget exhausted: fall back to a full flush. The flush is a
  // single always-delivered command, so safety holds even when every
  // per-range request was lost. A tenant driver scopes the fallback to its
  // own domain — blowing away co-resident tenants' cached translations is
  // not its call to make; the host driver keeps the global flush.
  inv_fallback_flushes_->Add();
  trace_.Instant("driver", "inv_fallback_flush", *t);
  const TimeNs submit = *t + config_.inv_submit_cpu_ns;
  const TimeNs hw = config_.domain.value != 0 ? iommu_->InvalidateDomain(config_.domain, submit)
                                              : iommu_->InvalidateAll(submit);
  inv_requests_submitted_->Add();
  ++*requests;
  *t = submit;
  if (hw > *t) {
    spin_ns_->Add(hw - *t);
    *t = hw;
  }
  return hw;
}

void DmaApi::TrackAllocation(Iova iova) {
  if (l3_tracker_ != nullptr) {
    l3_tracker_->Access(LevelTag(iova, 3));
  }
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
  DmaMapping m;
  m.iova = AllocIova(core, 1, cpu_ns);
  m.phys = frame;
  m.chunk_id = 0;
  if (m.iova == IovaAllocator::kInvalidIova) {
    return m;  // caller checks and drops the mapping
  }
  *cpu_ns += config_.map_page_cpu_ns;
  page_table_->Map(m.iova, frame);
  if (oracle_ != nullptr) {
    oracle_->OnMap(m.iova, 1);
    oracle_->OnMapBacking(m.iova, 1, frame);
  }
  TrackAllocation(m.iova);
  map_ops_->Add();
  return m;
}

DmaMapping DmaApi::MapIntoChunk(std::uint32_t core, PhysAddr frame, TimeNs* cpu_ns) {
  std::uint64_t chunk_id = 0;
  if (auto it = tx_cursor_chunk_.find(core); it != tx_cursor_chunk_.end()) {
    chunk_id = it->second;
  }
  Chunk* chunk = nullptr;
  if (chunk_id != 0) {
    chunk = &chunks_[chunk_id];
    if (chunk->mapped == chunk->pages) {
      chunk = nullptr;  // cursor chunk exhausted
    }
  }
  if (chunk == nullptr) {
    // Allocate a fresh descriptor-sized contiguous IOVA chunk.
    const Iova base = AllocIova(core, config_.pages_per_chunk, cpu_ns);
    if (base == IovaAllocator::kInvalidIova) {
      return DmaMapping{IovaAllocator::kInvalidIova, frame, 0};
    }
    chunk_id = next_chunk_id_++;
    Chunk fresh;
    fresh.base = base;
    fresh.pages = config_.pages_per_chunk;
    fresh.core = core;
    chunks_[chunk_id] = fresh;
    tx_cursor_chunk_[core] = chunk_id;
    chunk = &chunks_[chunk_id];
  }
  DmaMapping m;
  m.iova = chunk->base + static_cast<Iova>(chunk->mapped) * kPageSize;
  m.phys = frame;
  m.chunk_id = chunk_id;
  ++chunk->mapped;
  *cpu_ns += config_.map_page_cpu_ns;
  page_table_->Map(m.iova, frame);
  if (oracle_ != nullptr) {
    oracle_->OnMap(m.iova, 1);
    oracle_->OnMapBacking(m.iova, 1, frame);
  }
  TrackAllocation(m.iova);
  map_ops_->Add();
  return m;
}

DmaApi::MapResult DmaApi::MapPages(std::uint32_t core, const std::vector<PhysAddr>& frames) {
  MapResult out;
  out.mappings.reserve(frames.size());
  if (config_.mode == ProtectionMode::kOff) {
    for (PhysAddr frame : frames) {
      out.mappings.push_back(DmaMapping{frame, frame, 0});
    }
    return out;
  }
  if (config_.mode == ProtectionMode::kCapability) {
    // Kernel bypass: no IOMMU programming — device addresses are physical.
    // One capability covers the whole descriptor buffer; its slot rides in
    // chunk_id so completions can name the entry they retire.
    const CapabilityTable::GrantResult g = captable_->Grant(frames);
    out.cpu_ns += g.cpu_ns;
    for (PhysAddr frame : frames) {
      out.mappings.push_back(DmaMapping{frame, frame, g.id.slot});
      if (oracle_ != nullptr) {
        oracle_->OnMap(frame, 1);
        oracle_->OnMapBacking(frame, 1, frame);
      }
    }
    map_ops_->Add();
    cpu_ns_total_->Add(out.cpu_ns);
    map_cpu_ns_->Add(out.cpu_ns);
    return out;
  }
  if (UsesContiguousIovas(config_.mode)) {
    // One fresh chunk per Rx descriptor (Fig. 4b): the descriptor's pages
    // occupy consecutive 4 KB slices of one contiguous IOVA range.
    const Iova base = AllocIova(core, config_.pages_per_chunk, &out.cpu_ns);
    if (base == IovaAllocator::kInvalidIova) {
      cpu_ns_total_->Add(out.cpu_ns);
      map_cpu_ns_->Add(out.cpu_ns);
      return out;  // no descriptor this round; the ring refills later
    }
    const std::uint64_t chunk_id = next_chunk_id_++;
    Chunk chunk;
    chunk.base = base;
    chunk.pages = config_.pages_per_chunk;
    chunk.core = core;
    if (config_.use_hugepages && IsHugeBacked(frames)) {
      // F&S + hugepages (§5 future work): one PT-L3 leaf entry maps the
      // whole descriptor; one map call, one unmap, one IOTLB entry.
      page_table_->MapHuge(base, frames[0]);
      if (oracle_ != nullptr) {
        oracle_->OnMap(base, frames.size());
        oracle_->OnMapBacking(base, frames.size(), frames[0]);
      }
      out.cpu_ns += config_.map_page_cpu_ns;
      TrackAllocation(base);
      map_ops_->Add();
      huge_chunks_.insert(chunk_id);
      for (std::size_t i = 0; i < frames.size(); ++i) {
        DmaMapping m;
        m.iova = base + static_cast<Iova>(i) * kPageSize;
        m.phys = frames[i];
        m.chunk_id = chunk_id;
        out.mappings.push_back(m);
        ++chunk.mapped;
      }
      chunks_[chunk_id] = chunk;
      cpu_ns_total_->Add(out.cpu_ns);
      map_cpu_ns_->Add(out.cpu_ns);
      return out;
    }
    for (std::size_t i = 0; i < frames.size(); ++i) {
      DmaMapping m;
      m.iova = base + static_cast<Iova>(i) * kPageSize;
      m.phys = frames[i];
      m.chunk_id = chunk_id;
      page_table_->Map(m.iova, frames[i]);
      if (oracle_ != nullptr) {
        oracle_->OnMap(m.iova, 1);
        oracle_->OnMapBacking(m.iova, 1, frames[i]);
      }
      TrackAllocation(m.iova);
      map_ops_->Add();
      out.cpu_ns += config_.map_page_cpu_ns;
      out.mappings.push_back(m);
      ++chunk.mapped;
    }
    chunks_[chunk_id] = chunk;
  } else {
    for (PhysAddr frame : frames) {
      const DmaMapping m = MapStandalone(core, frame, &out.cpu_ns);
      if (m.iova != IovaAllocator::kInvalidIova) {
        out.mappings.push_back(m);
      }
    }
  }
  cpu_ns_total_->Add(out.cpu_ns);
  map_cpu_ns_->Add(out.cpu_ns);
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
  if (config_.mode == ProtectionMode::kOff) {
    out.mapping = DmaMapping{frame, frame, 0};
    return out;
  }
  if (config_.mode == ProtectionMode::kCapability) {
    const CapabilityTable::GrantResult g = captable_->GrantRange(frame, 1);
    out.cpu_ns += g.cpu_ns;
    out.mapping = DmaMapping{frame, frame, g.id.slot};
    if (oracle_ != nullptr) {
      oracle_->OnMap(frame, 1);
      oracle_->OnMapBacking(frame, 1, frame);
    }
    map_ops_->Add();
    cpu_ns_total_->Add(out.cpu_ns);
    map_cpu_ns_->Add(out.cpu_ns);
    return out;
  }
  if (config_.mode == ProtectionMode::kHugepagePersistent) {
    // Tx pages also come from a permanently-mapped pool: the IOVA keeps
    // pointing at the recycled buffer page forever (weaker safety).
    auto& pool = persistent_tx_pool_[core];
    if (!pool.empty()) {
      out.mapping = pool.front();
      pool.pop_front();
      out.mapping.phys = frame;  // the buffer page is recycled behind the same IOVA
      if (oracle_ != nullptr) {
        oracle_->OnMap(out.mapping.iova, 1);  // logically re-acquired by the driver
      }
      return out;
    }
    out.mapping = MapStandalone(core, frame, &out.cpu_ns);
    cpu_ns_total_->Add(out.cpu_ns);
    return out;
  }
  out.mapping = UsesContiguousIovas(config_.mode) ? MapIntoChunk(core, frame, &out.cpu_ns)
                                                  : MapStandalone(core, frame, &out.cpu_ns);
  cpu_ns_total_->Add(out.cpu_ns);
  return out;
}

Iova DmaApi::MapPersistent(std::uint32_t core, const std::vector<PhysAddr>& frames) {
  if (config_.mode == ProtectionMode::kOff) {
    return frames.empty() ? 0 : frames.front();
  }
  if (config_.mode == ProtectionMode::kCapability) {
    // Descriptor rings get a never-revoked capability over the region the
    // device fetches from (identity-addressed, like the kOff ring region).
    if (frames.empty()) {
      return 0;
    }
    captable_->GrantRange(frames.front(), frames.size());
    if (oracle_ != nullptr) {
      oracle_->OnMap(frames.front(), frames.size());
      for (std::size_t i = 0; i < frames.size(); ++i) {
        oracle_->OnMapBacking(frames.front() + static_cast<Iova>(i) * kPageSize, 1,
                              frames.front() + static_cast<PhysAddr>(i) * kPageSize);
      }
    }
    return frames.front();
  }
  TimeNs cpu_ns = 0;
  const Iova base = AllocIova(core, frames.size(), &cpu_ns);
  if (base == IovaAllocator::kInvalidIova) {
    return base;
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    page_table_->Map(base + static_cast<Iova>(i) * kPageSize, frames[i]);
  }
  if (oracle_ != nullptr) {
    oracle_->OnMap(base, frames.size());
    // Ring frames need not be physically contiguous; record per page.
    for (std::size_t i = 0; i < frames.size(); ++i) {
      oracle_->OnMapBacking(base + static_cast<Iova>(i) * kPageSize, 1, frames[i]);
    }
  }
  return base;
}

bool DmaApi::IsHugeBacked(const std::vector<PhysAddr>& frames) {
  constexpr std::uint64_t kHugeSpan = 2ull << 20;
  if (frames.size() != kHugeSpan / kPageSize || (frames[0] & (kHugeSpan - 1)) != 0) {
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
  auto& pool = persistent_pool_[core];
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
  const std::uint64_t pages = (2ull << 20) / kPageSize;
  const Iova base = AllocIova(core, pages, &out.cpu_ns);
  if (base == IovaAllocator::kInvalidIova) {
    cpu_ns_total_->Add(out.cpu_ns);
    return out;
  }
  out.cpu_ns += config_.map_page_cpu_ns;
  page_table_->MapHuge(base, huge);
  if (oracle_ != nullptr) {
    oracle_->OnMap(base, pages);
    oracle_->OnMapBacking(base, pages, huge);
  }
  TrackAllocation(base);
  map_ops_->Add();
  out.mappings.reserve(pages);
  for (std::uint64_t i = 0; i < pages; ++i) {
    out.mappings.push_back(DmaMapping{base + i * kPageSize, huge + i * kPageSize, 0});
  }
  cpu_ns_total_->Add(out.cpu_ns);
  map_cpu_ns_->Add(out.cpu_ns);
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
  persistent_pool_[core].push_back(mappings);
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
  const bool is_tx_cursor =
      tx_cursor_chunk_.contains(chunk.core) && tx_cursor_chunk_[chunk.core] == chunk_id;
  const bool fully_mapped = chunk.mapped == chunk.pages || !is_tx_cursor;
  if (fully_mapped && chunk.unmapped >= chunk.mapped) {
    iova_->Free(FreeTarget(core), chunk.base, chunk.pages);
    if (is_tx_cursor) {
      tx_cursor_chunk_.erase(chunk.core);
    }
    huge_chunks_.erase(chunk_id);
    chunks_.erase(it);
  }
}

DmaApi::UnmapResultInfo DmaApi::UnmapDescriptor(std::uint32_t core,
                                                const std::vector<DmaMapping>& mappings,
                                                TimeNs at) {
  UnmapResultInfo out;
  if (config_.mode == ProtectionMode::kOff || mappings.empty()) {
    return out;
  }
  if (config_.mode == ProtectionMode::kCapability) {
    // Revoke each owning capability once. The revoke is synchronous: an
    // armed entry (one the device checked) charges the bounded in-flight
    // quiesce, so by the time this call returns no descriptor can pass a
    // check against the dying entry — the strict property without any
    // IOMMU invalidation.
    TimeNs t = at;
    std::vector<CapabilityId> ids;
    for (const DmaMapping& m : mappings) {
      const CapabilityId id = captable_->Lookup(m.iova);
      if (id.slot == 0) {
        // No live owner: a duplicate completion already retired this page.
        double_unmap_->Add();
        if (invariants_ != nullptr) {
          std::ostringstream os;
          os << "addr=0x" << std::hex << m.iova << std::dec << " has no live capability";
          invariants_->ReportFailure("dma.double_unmap", os.str(), at);
        }
        continue;
      }
      if (oracle_ != nullptr) {
        oracle_->OnUnmap(m.iova, 1);
      }
      bool seen = false;
      for (const CapabilityId& k : ids) {
        if (k.slot == id.slot) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        ids.push_back(id);
      }
    }
    for (const CapabilityId& id : ids) {
      const CapabilityTable::RevokeResult r = captable_->Revoke(id);
      t += r.cpu_ns;
      unmap_ops_->Add();
    }
    out.cpu_ns = t - at;
    out.hw_done = t;
    cpu_ns_total_->Add(out.cpu_ns);
    if (trace_.enabled() && t > at) {
      trace_.Complete("driver", "cap_revoke", at, t, "pages",
                      static_cast<double>(mappings.size()), "caps",
                      static_cast<double>(ids.size()));
    }
    return out;
  }
  if (config_.mode == ProtectionMode::kHugepagePersistent) {
    // Nothing is unmapped or invalidated; buffers return to the pool still
    // device-accessible.
    auto& pool = persistent_tx_pool_[core];
    for (const DmaMapping& m : mappings) {
      if (oracle_ != nullptr) {
        oracle_->OnRelease(m.iova, 1);
      }
      pool.push_back(m);
    }
    out.cpu_ns = 20 * mappings.size();
    cpu_ns_total_->Add(out.cpu_ns);
    return out;
  }
  TimeNs t = at;

  if (config_.mode == ProtectionMode::kDeferred) {
    for (const DmaMapping& m : mappings) {
      if (!page_table_->IsMapped(m.iova)) {
        // Double unmap (duplicate completion): without this check the IOVA
        // would be queued for freeing twice and handed out while the first
        // owner still considers it pending.
        double_unmap_->Add();
        if (invariants_ != nullptr) {
          std::ostringstream os;
          os << "iova=0x" << std::hex << m.iova << std::dec << " already unmapped";
          invariants_->ReportFailure("dma.double_unmap", os.str(), at);
        }
        continue;
      }
      const UnmapResult r = page_table_->Unmap(m.iova, kPageSize);
      HandleReclamation(r);
      if (oracle_ != nullptr) {
        oracle_->OnUnmap(m.iova, 1);
      }
      unmap_ops_->Add();
      t += config_.unmap_page_cpu_ns;
      deferred_queue_.push_back(DeferredIova{m.iova, 1, core});
    }
    if (deferred_queue_.size() >= config_.deferred_flush_threshold) {
      if (fault_injector_ != nullptr &&
          deferred_queue_.size() < 4 * config_.deferred_flush_threshold &&
          fault_injector_->Sample(FaultKind::kDeferredFlushDelay, t).fire) {
        // Flush postponed (timer starvation): every queued IOVA's
        // use-after-unmap window stretches until the next flush attempt.
        deferred_flush_delays_->Add();
        out.cpu_ns = t - at;
        cpu_ns_total_->Add(out.cpu_ns);
        return out;
      }
      const TimeNs flush_start = t;
      // The deferred flush-queue drain is a full flush in Linux; a tenant
      // driver's version is domain-selective for the same reason as the
      // retry fallback.
      const TimeNs hw = config_.domain.value != 0 ? iommu_->InvalidateDomain(config_.domain, t)
                                                  : iommu_->InvalidateAll(t);
      inv_requests_submitted_->Add();
      ++out.invalidation_requests;
      t += config_.inv_submit_cpu_ns;
      if (hw > t) {
        t = hw;
      }
      out.hw_done = hw;
      if (trace_.enabled()) {
        trace_.Complete("driver", "deferred_flush", flush_start, t, "iovas",
                        static_cast<double>(deferred_queue_.size()));
      }
      while (!deferred_queue_.empty()) {
        const DeferredIova& d = deferred_queue_.front();
        iova_->Free(FreeTarget(d.core), d.iova, d.pages);
        deferred_queue_.pop_front();
      }
      deferred_flushes_->Add();
    }
    out.cpu_ns = t - at;
    cpu_ns_total_->Add(out.cpu_ns);
    if (trace_.enabled() && t > at) {
      trace_.Complete("driver", "unmap", at, t, "pages",
                      static_cast<double>(mappings.size()), "inv_reqs",
                      static_cast<double>(out.invalidation_requests));
    }
    return out;
  }

  const bool preserve = PreservesPtCaches(config_.mode);
  const bool batch = UsesContiguousIovas(config_.mode);

  // Group the descriptor's mappings into maximal contiguous runs. Only
  // chunk-allocated IOVAs are known-contiguous; standalone IOVAs always form
  // single-page runs (Fig. 6a vs 6b).
  std::size_t i = 0;
  while (i < mappings.size()) {
    std::size_t j = i + 1;
    if (batch && mappings[i].chunk_id != 0) {
      while (j < mappings.size() && mappings[j].chunk_id == mappings[i].chunk_id &&
             mappings[j].iova == mappings[j - 1].iova + kPageSize) {
        ++j;
      }
    }
    const Iova run_base = mappings[i].iova;
    const std::uint64_t run_pages = j - i;

    // One unmap call for the whole run (Linux unmaps per page; the run is a
    // single page there, so the semantics coincide).
    const bool huge_run =
        mappings[i].chunk_id != 0 && huge_chunks_.contains(mappings[i].chunk_id);
    const UnmapResult r = page_table_->Unmap(run_base, run_pages * kPageSize);
    HandleReclamation(r);
    if (r.unmapped_pages < run_pages) {
      // Some (or all) of the run was already torn down: a duplicate
      // completion reached this unmap. Report the hard invariant failure
      // and account only what this call actually unmapped, so the chunk's
      // books and the IOVA allocator are not corrupted.
      double_unmap_->Add();
      if (invariants_ != nullptr) {
        std::ostringstream os;
        os << "run base=0x" << std::hex << run_base << std::dec << " pages=" << run_pages
           << " freshly unmapped=" << r.unmapped_pages;
        invariants_->ReportFailure("dma.double_unmap", os.str(), at);
      }
      if (r.unmapped_pages == 0) {
        i = j;  // nothing new unmapped: no invalidation, no IOVA free
        continue;
      }
    }
    if (oracle_ != nullptr) {
      oracle_->OnUnmap(run_base, run_pages);
    }
    unmap_ops_->Add();
    // A huge mapping clears one PT-L3 leaf entry; 4 KB runs clear one PTE
    // per page.
    t += huge_run ? config_.unmap_page_cpu_ns : config_.unmap_page_cpu_ns * run_pages;

    // One invalidation-queue request per run; strict Linux issues one per
    // page because its IOVAs are not contiguous. Lost or stalled requests
    // are retried with backoff (see SubmitInvalidationWithRetry) so the
    // completion below is guaranteed.
    const bool leaf_only =
        preserve && (!r.reclaimed_any() || config_.inject_skip_reclaim_invalidation);
    const TimeNs hw = SubmitInvalidationWithRetry(run_base, run_pages * kPageSize, leaf_only,
                                                  &t, &out.invalidation_requests);
    if (hw > out.hw_done) {
      out.hw_done = hw;
    }

    // Release the IOVAs.
    if (mappings[i].chunk_id != 0) {
      AccountChunkUnmap(core, mappings[i].chunk_id,
                        static_cast<std::uint32_t>(r.unmapped_pages));
    } else {
      for (std::size_t k = i; k < j; ++k) {
        iova_->Free(FreeTarget(core), mappings[k].iova, 1);
      }
    }
    i = j;
  }
  out.cpu_ns = t - at;
  cpu_ns_total_->Add(out.cpu_ns);
  if (trace_.enabled() && t > at) {
    trace_.Complete("driver", "unmap", at, t, "pages",
                    static_cast<double>(mappings.size()), "inv_reqs",
                    static_cast<double>(out.invalidation_requests));
  }
  return out;
}

}  // namespace fsio

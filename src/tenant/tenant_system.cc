#include "src/tenant/tenant_system.h"

#include "src/faults/recovery_protocol.h"

namespace fsio {

TenantSystem::TenantSystem(const TenantSystemConfig& config) : config_(config) {
  memory_ = std::make_unique<MemorySystem>(config_.memory, &stats_);
  host_page_table_ = std::make_unique<IoPageTable>();
  iommu_ = std::make_unique<Iommu>(config_.iommu, memory_.get(), host_page_table_.get(),
                                   &stats_);
  root_complex_ =
      std::make_unique<RootComplex>(config_.pcie, iommu_.get(), memory_.get(), &stats_);
  frames_ = std::make_unique<FrameAllocator>();

  tenants_.reserve(config_.tenants.size());
  for (const TenantConfig& tc : config_.tenants) {
    Tenant tenant;
    tenant.config = tc;
    // Tenant drivers run on 4 cores with the IOVA rcache on and no
    // cross-core free migration, so multi-tenant scenarios stay
    // deterministic without seeding per-tenant RNG streams.
    ProtectionDomainConfig pd;
    pd.iova.num_cores = 4;
    pd.iova.enable_rcache = true;
    pd.dma.mode = tc.mode;
    pd.dma.pages_per_chunk = config_.churn_pages;
    pd.dma.num_cores = 4;
    pd.dma.free_migration_fraction = 0.0;
    tenant.oracle = std::make_unique<SafetyOracle>();
    tenant.domain = std::make_unique<ProtectionDomain>(
        pd, iommu_.get(), ProtectionDomain::Binding::kNewDomain, &stats_);
    tenant.domain->SetOracle(tenant.oracle.get());
    tenants_.push_back(std::move(tenant));
    arbiter_.Add(tc.weight);
  }
}

void FunctionArbiter::Add(std::uint32_t weight) {
  const std::uint32_t w = weight == 0 ? 1 : weight;
  functions_.push_back(Function{w, w});
}

std::optional<std::size_t> FunctionArbiter::Next() {
  bool any_work = false;
  // At most two sweeps: one with current credits, one after a refill.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < functions_.size(); ++i) {
      const std::size_t idx = (cursor_ + i) % functions_.size();
      Function& fn = functions_[idx];
      if (fn.queued == 0) {
        continue;
      }
      any_work = true;
      if (fn.credits > 0) {
        --fn.credits;
        --fn.queued;
        cursor_ = (idx + 1) % functions_.size();
        return idx;
      }
    }
    if (!any_work) {
      return std::nullopt;
    }
    // Work exists but every backlogged function is out of credits: start a
    // new credit cycle.
    for (Function& fn : functions_) {
      fn.credits = fn.weight;
    }
  }
  return std::nullopt;  // unreachable with positive weights; defensive
}

void TenantSystem::RetireInFlight(Tenant* tenant, TimeNs* t) {
  const std::uint32_t depth = tenant->config.pipeline_depth == 0
                                  ? 1
                                  : tenant->config.pipeline_depth;
  while (tenant->in_flight.size() >= depth) {
    Desc& d = tenant->in_flight.front();
    const DmaApi::UnmapResultInfo u = tenant->domain->dma().UnmapDescriptor(0, d.mappings, *t);
    *t += u.cpu_ns;
    for (PhysAddr f : d.frames) {
      frames_->FreeFrame(f);
    }
    tenant->in_flight.pop_front();
  }
}

void TenantSystem::RunOp(Tenant* tenant) {
  const std::uint32_t pages =
      tenant->config.latency_critical ? config_.rpc_pages : config_.churn_pages;
  DmaApi& dma = tenant->domain->dma();
  const TimeNs start = now_;
  TimeNs t = start;

  // Make room in the pipeline first, then map, check and DMA this op's
  // descriptor.
  RetireInFlight(tenant, &t);
  Desc desc;
  desc.mappings.reserve(pages);
  desc.frames.reserve(pages);
  for (std::uint32_t i = 0; i < pages; ++i) {
    const PhysAddr f = frames_->AllocFrame();
    const DmaApi::PageMapResult mr = dma.MapOnePage(0, f);
    t += mr.cpu_ns;
    if (!mr.ok()) {
      frames_->FreeFrame(f);
      continue;
    }
    desc.frames.push_back(f);
    desc.mappings.push_back(mr.mapping);
  }
  const DmaApi::DeviceCheckResult check = dma.DeviceCheckCapability(desc.mappings, t);
  t += check.check_ns;
  if (!check.allowed) {
    ++tenant->faulted_dmas;
  } else if (!desc.mappings.empty()) {
    const bool passthrough = !UsesIommu(tenant->config.mode);
    std::vector<DmaSegment> segments;
    segments.reserve(desc.mappings.size());
    for (const DmaMapping& m : desc.mappings) {
      segments.push_back(DmaSegment{m.iova, static_cast<std::uint32_t>(kPageSize),
                                    tenant->domain->id(), passthrough});
    }
    const DmaTiming w = root_complex_->DmaWrite(t, segments);
    if (w.fault) {
      ++tenant->faulted_dmas;
    }
    if (tenant->config.latency_critical) {
      // Synchronous RPC: latency covers the DMA completion.
      if (w.commit_done > t) {
        t = w.commit_done;
      }
    } else {
      // Fire-and-forget churn: the clock advances only past the CPU work;
      // the walks stay queued on the shared walker where the victim's next
      // translation will find them.
      tenant->busy_until = w.commit_done;
    }
  }
  tenant->in_flight.push_back(std::move(desc));

  tenant->latency.Record(static_cast<std::uint64_t>(t - start));
  now_ = t;
}

void TenantSystem::RunRounds(std::uint64_t rounds) {
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& tenant = tenants_[i];
      // Async tenants whose last DMA is still in flight skip the round:
      // outstanding device work stays bounded near the clock instead of
      // queueing unboundedly far ahead of it.
      if (!tenant.crashed &&
          (tenant.config.latency_critical || tenant.busy_until <= now_)) {
        arbiter_.Enqueue(i, tenant.config.weight);
      }
    }
    while (const std::optional<std::size_t> i = arbiter_.Next()) {
      if (!tenants_[*i].crashed) {
        RunOp(&tenants_[*i]);
      }
    }
  }
}

void TenantSystem::CrashTenant(std::size_t idx) {
  // The tenant stops cold: its in-flight descriptor stays mapped and the
  // shared caches keep whatever they hold for the domain. That state is the
  // recovery hazard.
  tenants_[idx].crashed = true;
}

void TenantSystem::RecoverTenant(std::size_t idx) {
  Tenant& tenant = tenants_[idx];
  // Per-tenant recovery walks the same ladder as whole-host recovery
  // (src/faults/recovery_protocol.h); the model checker interleaves these
  // exact steps against the other tenants' live DMA.
  RecoveryStep step = RecoveryStep::kIdle;

  // kQuiesceDevice: the crash already parked the tenant (RunRounds skips
  // crashed tenants), so no new jobs reach the arbiter for this function.
  step = NextRecoveryStep(step);
  // kDrainInflight: RunOp advances the clock past each DMA before the
  // descriptor enters in_flight, so by the time recovery runs nothing this
  // tenant posted is still moving through the root complex.
  step = NextRecoveryStep(step);

  // kReclaimFrames: the stranded descriptors' frames go back to the shared
  // pool and the driver stack is rebuilt; the rebuilt driver has no record
  // of them. Safe only because the two steps above already hold.
  step = NextRecoveryStep(step);
  for (const Desc& d : tenant.in_flight) {
    for (PhysAddr f : d.frames) {
      frames_->FreeFrame(f);
    }
  }
  tenant.in_flight.clear();
  tenant.domain->Rebuild();

  // kInvalidateCaches: a domain-selective flush evicts every translation
  // the shared IOMMU cached for the dead stack before the rebuilt driver
  // can re-use its IOVAs. Co-resident tenants' cached translations stay
  // resident.
  step = NextRecoveryStep(step);
  now_ = iommu_->InvalidateDomain(tenant.domain->id(), now_);

  step = NextRecoveryStep(step);  // kDone: the tenant may map again.
  tenant.crashed = step != RecoveryStep::kDone;
}

TenantReport TenantSystem::Report(std::size_t idx) const {
  const Tenant& tenant = tenants_[idx];
  TenantReport report;
  report.ops = tenant.latency.count();
  report.p50_ns = tenant.latency.Percentile(50.0);
  report.p99_ns = tenant.latency.Percentile(99.0);
  report.p999_ns = tenant.latency.Percentile(99.9);
  report.violations = tenant.oracle->total_violations();
  report.cross_domain = tenant.oracle->count(SafetyViolationKind::kCrossDomainHit);
  report.faulted_dmas = tenant.faulted_dmas;
  return report;
}

}  // namespace fsio

#include "src/host/host.h"

namespace fsio {

constexpr TimeNs kRxPacketNs = 350;  // base stack cost per received packet
constexpr double kRxByteNs = 0.02;   // per-byte processing (copy/GRO) cost
constexpr TimeNs kTxPacketNs = 250;  // base stack cost per transmitted packet
constexpr std::uint32_t kNapiBudget = 64;

HostConfig Host::Normalize(HostConfig config) {
  config.dma.mode = config.mode;
  if (config.mode == ProtectionMode::kHugepagePersistent) {
    config.use_hugepages = true;
  }
  if (config.use_hugepages) {
    config.pages_per_desc = 512;  // one descriptor == one 2 MB huge frame
    config.dma.use_hugepages = true;
  }
  config.dma.pages_per_chunk = config.pages_per_desc;
  config.dma.num_cores = config.cores;
  config.iova.num_cores = config.cores;
  return config;
}

Host::Host(const HostConfig& config, EventQueue* ev)
    : config_(Normalize(config)),
      ev_(ev),
      memory_(std::make_unique<MemorySystem>(config_.memory, &stats_)),
      frames_(/*scramble=*/false, /*seed=*/config.host_id + 1),
      iommu_(UsesIommu(config_.mode)
                 ? std::make_unique<Iommu>(config_.iommu, memory_.get(), nullptr, &stats_)
                 : nullptr),
      driver_({config_.iova, config_.dma}, iommu_.get(),
              ProtectionDomain::Binding::kHostDomain, &stats_),
      cores_(config.cores == 0 ? 1 : config.cores),
      app_rx_bytes_(stats_.Get("host.app_rx_bytes")),
      replenished_descs_(stats_.Get("host.replenished_descs")) {
  if (config_.track_l3_locality) {
    driver_.SetL3Tracker(&l3_tracker_);
  }
  rc_ = std::make_unique<RootComplex>(config_.pcie, iommu_.get(), memory_.get(), &stats_);
  config_.nic.mtu_bytes = config_.mtu_bytes;
  nic_ = std::make_unique<Nic>(config_.nic, config_.cores, ev_, rc_.get(), &stats_);
  if (config_.mode == ProtectionMode::kCapability) {
    // Captures `this`, not the DmaApi, so the check follows the driver-stack swap
    // across crash recovery (the rebuilt DmaApi carries a fresh, empty
    // capability table — descriptors from before the crash fail the check).
    nic_->SetCapabilityCheck(
        [this](const std::vector<DmaMapping>& mappings, TimeNs now) {
          return dma().DeviceCheckCapability(mappings, now);
        });
  }

  pages_per_packet_ =
      static_cast<std::uint32_t>((config_.mtu_bytes + kPageSize - 1) / kPageSize);
  target_pages_per_ring_ = static_cast<std::uint64_t>(config_.ring_size_pkts) *
                           pages_per_packet_ * kRingPagesMultiplier;
  if (config_.use_hugepages) {
    // Keep at least four 2 MB descriptors posted so the ring never runs dry
    // while one descriptor is being recycled (the memory-footprint cost of
    // hugepage-backed rings).
    const std::uint64_t min_pages = 4ull * config_.pages_per_desc;
    if (target_pages_per_ring_ < min_pages) {
      target_pages_per_ring_ = min_pages;
    }
  }

  nic_->SetDeliver([this](const Packet& p, std::uint32_t core) {
    if (state_ != HostState::kRunning) {
      // DMA already landed (legal: memory is still owned), but no CPU will
      // ever consume the packet.
      LazyCounter(&stats_, &crash_rx_dropped_, "host.crash_rx_dropped")->Add();
      return;
    }
    cores_[core].rx_queue.push_back(p);
    ScheduleCore(core);
  });
  nic_->SetDescComplete([this](std::uint32_t core, std::vector<DmaMapping> mappings) {
    if (state_ != HostState::kRunning) {
      return;  // descriptor dies with the host; recovery unmaps everything
    }
    cores_[core].desc_completions.push_back(std::move(mappings));
    ScheduleCore(core);
  });
  nic_->SetTxComplete(
      [this](const Packet& p, std::vector<DmaMapping> mappings, std::uint32_t core) {
        if (state_ != HostState::kRunning) {
          return;
        }
        cores_[core].tx_unmaps.push_back(std::move(mappings));
        ScheduleCore(core);
        OnTxSegmentComplete(p);
      });
  nic_->SetWireTx([this](const Packet& p, TimeNs departure) {
    if (wire_out_) {
      wire_out_(p, departure);
    }
  });

  SetupRings();
}

void Host::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  const std::uint32_t id = config_.host_id;
  host_trace_ = TraceScope(tracer, id, TraceTrack::kHost);
  driver_trace_ = TraceScope(tracer, id, TraceTrack::kDriver);
  if (iommu_ != nullptr) {
    iommu_->SetTrace(TraceScope(tracer, id, TraceTrack::kIommu));
  }
  rc_->SetTrace(TraceScope(tracer, id, TraceTrack::kPcie));
  nic_->SetTrace(TraceScope(tracer, id, TraceTrack::kNic));
  driver_.SetTrace(driver_trace_);
  const TraceScope transport(tracer, id, TraceTrack::kTransport);
  for (auto& [flow, sender] : senders_) {
    sender->SetTrace(transport);
  }
  for (auto& [flow, receiver] : receivers_) {
    receiver->SetTrace(transport);
  }
}

void Host::SetupRings() {
  for (std::uint32_t c = 0; c < cores_.size(); ++c) {
    // Persistently-mapped descriptor ring region (ring entries are 64 B; a
    // few pages per ring).
    const std::uint64_t ring_bytes = static_cast<std::uint64_t>(config_.ring_size_pkts) * 64;
    const std::uint64_t ring_pages = (ring_bytes + kPageSize - 1) / kPageSize;
    std::vector<PhysAddr> ring_frames;
    for (std::uint64_t i = 0; i < ring_pages; ++i) {
      ring_frames.push_back(frames_.AllocFrame());
    }
    const Iova ring_iova = dma().MapPersistent(c, ring_frames);
    nic_->SetRingIova(c, ring_iova, ring_pages);

    // Initial descriptor fill.
    TimeNs cpu = 0;
    ReplenishRing(c, 0, &cpu);
  }
}

void Host::ReplenishRing(std::uint32_t core_idx, TimeNs at, TimeNs* cpu_ns) {
  while (nic_->AvailableRxPages(core_idx) + config_.pages_per_desc <= target_pages_per_ring_) {
    DmaApi::MapResult mapped;
    if (config_.mode == ProtectionMode::kHugepagePersistent) {
      mapped = dma().AcquirePersistentDescriptor(
          core_idx, [this] { return frames_.AllocHugeFrame(); });
    } else if (config_.use_hugepages) {
      const PhysAddr huge = frames_.AllocHugeFrame();
      std::vector<PhysAddr> frames;
      frames.reserve(config_.pages_per_desc);
      for (std::uint32_t i = 0; i < config_.pages_per_desc; ++i) {
        frames.push_back(huge + static_cast<PhysAddr>(i) * kPageSize);
      }
      mapped = dma().MapPages(core_idx, frames);
    } else {
      std::vector<PhysAddr> frames;
      frames.reserve(config_.pages_per_desc);
      for (std::uint32_t i = 0; i < config_.pages_per_desc; ++i) {
        frames.push_back(frames_.AllocFrame());
      }
      mapped = dma().MapPages(core_idx, frames);
    }
    if (driver_trace_.enabled() && mapped.cpu_ns > 0) {
      driver_trace_.Complete("driver", "map_pages", at + *cpu_ns,
                             at + *cpu_ns + mapped.cpu_ns, "pages",
                             static_cast<double>(mapped.mappings.size()), "core",
                             static_cast<double>(core_idx));
    }
    *cpu_ns += mapped.cpu_ns;
    nic_->PostRxDescriptor(core_idx, std::move(mapped.mappings));
    replenished_descs_->Add();
  }
}

void Host::ScheduleCore(std::uint32_t core_idx) {
  if (state_ != HostState::kRunning) {
    return;
  }
  Core& core = cores_[core_idx];
  if (core.running) {
    return;
  }
  core.running = true;
  const TimeNs start = core.busy_until > ev_->now() ? core.busy_until : ev_->now();
  ev_->ScheduleAt(start, [this, core_idx] { RunCore(core_idx); });
}

void Host::RunCore(std::uint32_t core_idx) {
  Core& core = cores_[core_idx];
  if (state_ != HostState::kRunning) {
    core.running = false;  // the crash emptied this core's queues
    return;
  }
  const TimeNs t = core.busy_until > ev_->now() ? core.busy_until : ev_->now();
  TimeNs cpu = 0;

  // Driver work first: Tx completions, then Rx descriptor completions with
  // their unmap + invalidate + replenish cycle.
  while (!core.tx_unmaps.empty()) {
    std::vector<DmaMapping> mappings = std::move(core.tx_unmaps.front());
    core.tx_unmaps.pop_front();
    const auto result = dma().UnmapDescriptor(core_idx, mappings, t + cpu);
    cpu += result.cpu_ns;
    for (const DmaMapping& m : mappings) {
      frames_.FreeFrame(m.phys);
    }
    mappings.clear();
    mapvec_pool_.push_back(std::move(mappings));
  }
  bool replenish = false;
  while (!core.desc_completions.empty()) {
    std::vector<DmaMapping> mappings = std::move(core.desc_completions.front());
    core.desc_completions.pop_front();
    if (config_.mode == ProtectionMode::kHugepagePersistent) {
      // Recycle the permanently-mapped descriptor: no unmap, no invalidation
      // (and the huge frame stays with the pool).
      dma().ReleasePersistentDescriptor(core_idx, mappings);
      cpu += 50;
    } else if (config_.use_hugepages) {
      const auto result = dma().UnmapDescriptor(core_idx, mappings, t + cpu);
      cpu += result.cpu_ns;
      frames_.FreeHugeFrame(mappings[0].phys);
    } else {
      const auto result = dma().UnmapDescriptor(core_idx, mappings, t + cpu);
      cpu += result.cpu_ns;
      for (const DmaMapping& m : mappings) {
        frames_.FreeFrame(m.phys);
      }
    }
    // The descriptor's vector is freed here, after its unmap, and
    // ReplenishRing maps into a fresh one: live descriptor vectors stay
    // bounded by the descriptors posted plus the completions queued.
    replenish = true;
  }
  if (replenish) {
    ReplenishRing(core_idx, t + cpu, &cpu);
  }

  // NAPI: process up to a budget of received packets.
  std::vector<Packet> batch = TakeBatchVec();
  std::uint32_t budget = kNapiBudget;
  while (!core.rx_queue.empty() && budget-- > 0) {
    const Packet& p = core.rx_queue.front();
    cpu += kRxPacketNs + static_cast<TimeNs>(static_cast<double>(p.payload) * kRxByteNs);
    batch.push_back(p);
    core.rx_queue.pop_front();
  }

  if (cpu > 0) {
    host_trace_.Complete("host", "core_run", t, t + cpu, "core",
                         static_cast<double>(core_idx), "rx_batch",
                         static_cast<double>(batch.size()));
  }
  core.busy_until = t + cpu;
  cpu_busy_ns_ += cpu;
  ev_->ScheduleAt(core.busy_until, [this, core_idx, batch = std::move(batch)]() mutable {
    Core& c = cores_[core_idx];
    c.running = false;
    for (const Packet& p : batch) {
      RouteToTransport(p);
    }
    batch.clear();
    batch_pool_.push_back(std::move(batch));
    if (!c.rx_queue.empty() || !c.desc_completions.empty() || !c.tx_unmaps.empty()) {
      ScheduleCore(core_idx);
    }
  });
}

void Host::RouteToTransport(const Packet& packet) {
  if (state_ != HostState::kRunning) {
    return;  // batch was in flight through a core when the host died
  }
  if (packet.payload > 0) {
    if (auto it = receivers_.find(packet.flow_id); it != receivers_.end()) {
      it->second->OnData(packet);
    }
    return;
  }
  if (packet.has_ack) {
    if (auto it = senders_.find(packet.flow_id); it != senders_.end()) {
      it->second->OnAck(packet);
    }
  }
}

void Host::TransmitFromCore(const Packet& packet, std::uint32_t core_idx) {
  if (state_ != HostState::kRunning) {
    return;  // retransmit timers on a crashed host fire into the void
  }
  // TSQ accounting (the sender's quota callback enforces the limit before
  // segments are created; pure ACKs bypass it).
  if (packet.payload > 0) {
    flow_nic_bytes_[packet.flow_id] += packet.wire_size();
  }
  if (!nic_->CanAcceptTx(core_idx, packet.wire_size())) {
    // Local qdisc-style drop; the transport recovers via its loss machinery.
    stats_.Get("host.tx_qdisc_drops")->Add();
    if (packet.payload > 0) {
      flow_nic_bytes_[packet.flow_id] -= packet.wire_size();
    }
    return;
  }
  // Map the packet's payload pages on the sending core (Tx datapath step:
  // each packet gets page-granularity IOVAs regardless of its size).
  const std::uint64_t bytes = packet.wire_size();
  const std::uint32_t pages =
      static_cast<std::uint32_t>((bytes + kPageSize - 1) / kPageSize);
  std::vector<DmaMapping> mappings = TakeMapVec();
  TimeNs cpu = kTxPacketNs;
  mappings.reserve(pages);
  for (std::uint32_t i = 0; i < pages; ++i) {
    const PhysAddr frame = frames_.AllocFrame();
    const DmaApi::PageMapResult m = dma().MapOnePage(core_idx, frame);
    cpu += m.cpu_ns;
    if (!m.ok()) {
      frames_.FreeFrame(frame);  // IOVA space exhausted: send what did map
      continue;
    }
    mappings.push_back(m.mapping);
  }
  Core& core = cores_[core_idx];
  const TimeNs base = core.busy_until > ev_->now() ? core.busy_until : ev_->now();
  if (driver_trace_.enabled()) {
    driver_trace_.Complete("driver", "tx_map", base, base + cpu, "pages",
                           static_cast<double>(pages), "core",
                           static_cast<double>(core_idx));
  }
  core.busy_until = base + cpu;
  cpu_busy_ns_ += cpu;
  nic_->EnqueueTx(packet, std::move(mappings), core_idx);
}

DctcpSender* Host::AddSender(std::uint64_t flow_id, std::uint32_t local_core,
                             std::uint32_t dst_host, std::uint32_t dst_core,
                             const DctcpConfig& config) {
  auto sender = std::make_unique<DctcpSender>(
      flow_id, config, ev_,
      [this, local_core](const Packet& p) { TransmitFromCore(p, local_core); }, &stats_);
  sender->SetRoute(config_.host_id, dst_host, dst_core);
  sender->SetQuota([this, flow_id](std::uint64_t bytes) {
    const std::uint64_t in_nic = flow_nic_bytes_[flow_id];
    return in_nic == 0 || in_nic + bytes + kHeaderBytes <= config_.cpu.tsq_limit_bytes;
  });
  if (tracer_ != nullptr) {
    sender->SetTrace(TraceScope(tracer_, config_.host_id, TraceTrack::kTransport));
  }
  DctcpSender* out = sender.get();
  senders_[flow_id] = std::move(sender);
  flow_core_[flow_id] = local_core;
  return out;
}

DctcpReceiver* Host::AddReceiver(std::uint64_t flow_id, std::uint32_t local_core,
                                 std::uint32_t dst_host, std::uint32_t dst_core,
                                 const DctcpConfig& config,
                                 DctcpReceiver::DeliverFn app_deliver) {
  auto receiver = std::make_unique<DctcpReceiver>(
      flow_id, config, ev_,
      [this, local_core](const Packet& p) { TransmitFromCore(p, local_core); },
      [this, app_deliver = std::move(app_deliver)](std::uint64_t bytes) {
        app_rx_bytes_->Add(bytes);
        if (app_deliver) {
          app_deliver(bytes);
        }
      },
      &stats_);
  receiver->SetRoute(config_.host_id, dst_host, dst_core);
  if (tracer_ != nullptr) {
    receiver->SetTrace(TraceScope(tracer_, config_.host_id, TraceTrack::kTransport));
  }
  DctcpReceiver* out = receiver.get();
  receivers_[flow_id] = std::move(receiver);
  return out;
}

std::uint64_t Host::app_bytes_delivered() const { return stats_.Value("host.app_rx_bytes"); }

void Host::OnTxSegmentComplete(const Packet& packet) {
  if (packet.payload == 0) {
    return;
  }
  auto it = flow_nic_bytes_.find(packet.flow_id);
  if (it != flow_nic_bytes_.end()) {
    const std::uint64_t wire = packet.wire_size();
    it->second = it->second >= wire ? it->second - wire : 0;
  }
  // Budget freed: let the flow continue.
  if (auto sender = senders_.find(packet.flow_id); sender != senders_.end()) {
    sender->second->MaybeSend();
  }
}

void Host::ChargeCpu(std::uint32_t core_idx, TimeNs ns) {
  Core& core = cores_[core_idx % cores_.size()];
  const TimeNs base = core.busy_until > ev_->now() ? core.busy_until : ev_->now();
  core.busy_until = base + ns;
  cpu_busy_ns_ += ns;
}

std::vector<Packet> Host::TakeBatchVec() {
  if (batch_pool_.empty()) {
    return {};
  }
  std::vector<Packet> v = std::move(batch_pool_.back());
  batch_pool_.pop_back();
  return v;
}

std::vector<DmaMapping> Host::TakeMapVec() {
  if (mapvec_pool_.empty()) {
    return {};
  }
  std::vector<DmaMapping> v = std::move(mapvec_pool_.back());
  mapvec_pool_.pop_back();
  return v;
}

void Host::EnableSafetyInstrumentation(SafetyOracle* oracle, InvariantRegistry* invariants,
                                       FaultInjector* injector) {
  oracle_ = oracle;
  if (iommu_ != nullptr) {
    iommu_->SetFaultInjector(injector);
  }
  driver_.SetOracle(oracle);
  driver_.SetFaultInjector(injector);
  driver_.RegisterInvariants(invariants);
  frames_.SetFaultInjector(injector);
  rc_->SetFaultInjector(injector);
  nic_->SetFaultInjector(injector);
}

void Host::Crash() {
  if (state_ != HostState::kRunning) {
    return;
  }
  state_ = HostState::kCrashed;
  LazyCounter(&stats_, &crashes_, "host.crashes")->Add();
  host_trace_.Instant("host", "crash", ev_->now());
  // The CPU side dies instantly: queued stack work is lost. The NIC keeps
  // running (and keeps DMA-ing into still-owned memory) until Recover().
  for (Core& core : cores_) {
    core.rx_queue.clear();
    core.desc_completions.clear();
    core.tx_unmaps.clear();
  }
}

void Host::Recover() {
  if (state_ != HostState::kCrashed) {
    return;
  }
  state_ = HostState::kRecovering;
  const TimeNs now = ev_->now();
  // Steps 1–2 of the recovery ladder: stop descriptor fetch, then wait out
  // accesses the NIC already validated (they land in still-live frames).
  recovery_step_ = NextRecoveryStep(recovery_step_);  // kQuiesceDevice
  host_trace_.Instant("host", RecoveryStepName(recovery_step_), now);
  const TimeNs drain_done = nic_->Quiesce(now);
  recovery_step_ = NextRecoveryStep(recovery_step_);  // kDrainInflight
  host_trace_.Complete("host", "recovery_drain", now, drain_done);
  ev_->ScheduleAt(drain_done, [this] { FinishRecovery(); });
}

void Host::FinishRecovery() {
  const TimeNs now = ev_->now();

  // Step 3 of the ladder: every frame the allocator ever handed out goes
  // back to the (reset) allocator. Safe only because the quiesce/drain steps
  // completed — DMA landing in any of them before a fresh mapping re-hands
  // the frame out is a cross-host safety violation.
  recovery_step_ = NextRecoveryStep(recovery_step_);  // kReclaimFrames
  host_trace_.Instant("host", RecoveryStepName(recovery_step_), now);
  if (oracle_ != nullptr) {
    const std::uint64_t high_water = frames_.high_water_frame();
    if (high_water > 1) {
      oracle_->OnFramesReclaimed(/*base=*/kPageSize, /*pages=*/high_water - 1);
    }
  }
  frames_.Reset();

  // Rebuild the driver stack on the surviving IOMMU hardware: every live
  // mapping goes dead in the oracle and a fresh stack replaces the old one.
  driver_.Rebuild();

  // Step 4: flush every cached translation the IOMMU accumulated before the
  // crash. Skipping it (the injected bug) leaves stale IOTLB/PT-cache
  // entries that the oracle must catch once IOVAs are re-used.
  recovery_step_ = NextRecoveryStep(recovery_step_);  // kInvalidateCaches
  host_trace_.Instant("host", RecoveryStepName(recovery_step_), now);
  if (iommu_ != nullptr && !config_.skip_recovery_invalidation) {
    iommu_->InvalidateAll(now);
  }

  // Stale TSQ debt would permanently block flows whose Tx completions died
  // with the host.
  flow_nic_bytes_.clear();

  nic_->Resume();
  state_ = HostState::kRunning;
  recovery_step_ = RecoveryStep::kIdle;  // ladder complete; armed for next crash
  LazyCounter(&stats_, &recoveries_, "host.recoveries")->Add();
  host_trace_.Instant("host", "recovered", now);
  SetupRings();
}

}  // namespace fsio

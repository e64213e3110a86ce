#include "src/nic/nic.h"

#include "src/mem/address.h"

namespace fsio {

Nic::Nic(const NicConfig& config, std::uint32_t cores, EventQueue* ev, RootComplex* rc,
         StatsRegistry* stats)
    : config_(config),
      ev_(ev),
      rc_(rc),
      stats_(stats),
      rings_(cores == 0 ? 1 : cores),
      tx_queues_(cores == 0 ? 1 : cores),
      rx_packets_(stats->Get("nic.rx_packets")),
      rx_bytes_(stats->Get("nic.rx_bytes")),
      rx_wire_bytes_(stats->Get("nic.rx_wire_bytes")),
      drops_buffer_(stats->Get("nic.drops_buffer")),
      drops_nodesc_(stats->Get("nic.drops_nodesc")),
      tx_packets_(stats->Get("nic.tx_packets")),
      tx_bytes_(stats->Get("nic.tx_bytes")),
      tx_drops_(stats->Get("nic.tx_drops")),
      desc_fetches_(stats->Get("nic.desc_fetches")),
      completion_reorders_(stats->Get("nic.completion_reorders")),
      completion_duplicates_(stats->Get("nic.completion_duplicates")) {}

Counter* Nic::LazyCounter(Counter** slot, const char* name) {
  if (*slot == nullptr) {
    *slot = stats_->Get(name);
  }
  return *slot;
}

TimeNs Nic::Quiesce(TimeNs now) {
  quiesced_ = true;
  ++quiesce_epoch_;
  for (RxRing& ring : rings_) {
    ring.descs.clear();
    ring.ring_iova = 0;  // stops descriptor fetch until re-registration
    ring.ring_pages = 0;
    ring.fetch_cursor = 0;
    ring.packets_since_fetch = 0;
    ring.avail_pages = 0;
  }
  for (TxQueue& q : tx_queues_) {
    q.work.clear();
    q.bytes = 0;
  }
  rx_queue_.clear();
  rx_buffer_used_ = 0;
  // The engines stop accepting work immediately, but writes/reads already
  // issued to the root complex land at their commit times: the driver's
  // teardown must not reclaim frames before the last of them.
  TimeNs drain = now;
  for (const TimeNs t : {rx_engine_free_, tx_engine_free_, egress_free_, last_commit_done_}) {
    if (t > drain) {
      drain = t;
    }
  }
  return drain;
}

void Nic::SetRingIova(std::uint32_t core, Iova base, std::uint64_t pages) {
  RxRing& ring = rings_[core % rings_.size()];
  ring.ring_iova = base;
  ring.ring_pages = pages;
}

bool Nic::GateOnCapability(const std::vector<DmaMapping>& mappings, TimeNs* engine_free) {
  if (!cap_check_) {
    return true;  // not in capability mode: the IOMMU is the gate
  }
  const TimeNs now = ev_->now();
  const DmaApi::DeviceCheckResult c = cap_check_(mappings, now);
  // The validating engine stalls for the table lookup(s).
  *engine_free = (*engine_free > now ? *engine_free : now) + c.check_ns;
  if (!c.allowed) {
    // The device refuses the descriptor: its capability is missing or
    // revoked. The mappings are abandoned (driver error path), which is
    // exactly the fail-closed behavior the safety contract wants.
    LazyCounter(&cap_enqueue_rejects_, "nic.cap_enqueue_rejects")->Add();
    trace_.Instant("nic", "cap_reject", now);
    return false;
  }
  return true;
}

void Nic::PostRxDescriptor(std::uint32_t core, std::vector<DmaMapping> mappings) {
  if (!GateOnCapability(mappings, &rx_engine_free_)) {
    return;
  }
  RxRing& ring = rings_[core % rings_.size()];
  auto desc = std::make_shared<RxDesc>();
  desc->mappings = std::move(mappings);
  desc->posted_at = ev_->now();
  ring.avail_pages += desc->mappings.size();
  ring.descs.push_back(std::move(desc));
  if (!rx_queue_.empty() && !rx_pump_scheduled_) {
    // Packets may have been waiting for descriptor space.
    rx_pump_scheduled_ = true;
    ev_->ScheduleAfter(0, [this] {
      rx_pump_scheduled_ = false;
      PumpRx();
    });
  }
}

std::uint64_t Nic::AvailableRxPages(std::uint32_t core) const {
  // Maintained incrementally: post adds a descriptor's pages, PumpRx
  // subtracts each page it consumes, quiesce zeroes the ring. Retirement
  // never adjusts it — only exhausted (zero-page) descriptors retire.
  return rings_[core % rings_.size()].avail_pages;
}

void Nic::OnWireArrival(const Packet& packet) {
  if (quiesced_) {
    // Link is administratively down during recovery: the packet is lost on
    // the floor, never buffered, never DMA'd.
    LazyCounter(&rx_quiesced_drops_, "nic.rx_quiesced_drops")->Add();
    return;
  }
  const std::uint32_t wire = packet.wire_size();
  if (rx_buffer_used_ + wire > config_.rx_buffer_bytes) {
    drops_buffer_->Add();
    trace_.Instant("nic", "drop_buffer", ev_->now());
    return;
  }
  rx_buffer_used_ += wire;
  rx_queue_.push_back(packet);
  PumpRx();
}

void Nic::MaybeFetchDescriptors(RxRing* ring, TimeNs at) {
  if (!config_.model_descriptor_fetch || ring->ring_pages == 0) {
    return;
  }
  if (++ring->packets_since_fetch < kDescFetchEveryPackets) {
    return;
  }
  ring->packets_since_fetch = 0;
  desc_fetches_->Add();
  // One 512-byte read somewhere in the ring region (wraps around).
  const Iova iova =
      ring->ring_iova + (ring->fetch_cursor % (ring->ring_pages * kPageSize / 512)) * 512;
  ++ring->fetch_cursor;
  fetch_scratch_.clear();
  fetch_scratch_.push_back(DmaSegment{iova, 512});
  rc_->DmaRead(at, fetch_scratch_);
}

void Nic::RetireIfComplete(std::uint32_t core, RxDesc* desc) {
  if (desc->retired || !desc->exhausted() || desc->outstanding_packets != 0) {
    return;
  }
  desc->retired = true;
  // Lifecycle span: post → all pages consumed and their DMAs committed.
  trace_.Complete("nic", "rx_desc", desc->posted_at, ev_->now(), "pages",
                  static_cast<double>(desc->mappings.size()));
  // The completion takes over the descriptor's mapping vector: every reader
  // of RxDesc::mappings skips retired descriptors, so nothing reads it
  // again, and popping the retired run below may free `desc` itself.
  std::vector<DmaMapping> mappings = std::move(desc->mappings);
  RxRing& ring = rings_[core % rings_.size()];
  while (!ring.descs.empty() && ring.descs.front()->retired) {
    ring.descs.pop_front();
  }
  if (!desc_complete_) {
    return;
  }
  if (fault_injector_ != nullptr) {
    const TimeNs now = ev_->now();
    if (const FaultDecision d =
            fault_injector_->Sample(FaultKind::kDescCompletionReorder, now,
                                    static_cast<int>(core));
        d.fire) {
      // Completion delayed past younger descriptors' completions: the
      // driver sees CQEs out of posting order.
      completion_reorders_->Add();
      ev_->ScheduleAfter(d.magnitude_ns, [this, core, mappings = std::move(mappings),
                                          epoch = quiesce_epoch_]() mutable {
        if (epoch == quiesce_epoch_) {
          desc_complete_(core, std::move(mappings));
        }
      });
      return;
    }
    if (fault_injector_->Sample(FaultKind::kDescCompletionDuplicate, now, static_cast<int>(core))
            .fire) {
      // The same CQE is signalled twice; the second arrives later. The
      // driver's unmap path must detect the double-unmap. Only this path
      // copies the vector: each delivery owns one.
      completion_duplicates_->Add();
      ev_->ScheduleAfter(1, [this, core, mappings, epoch = quiesce_epoch_]() mutable {
        if (epoch == quiesce_epoch_) {
          desc_complete_(core, std::move(mappings));
        }
      });
    }
  }
  desc_complete_(core, std::move(mappings));
}

void Nic::PumpRx() {
  if (quiesced_) {
    // Invariant: a correctly quiesced NIC has nothing left to DMA. Anything
    // still queued here would land in a torn-down ring.
    while (!rx_queue_.empty()) {
      LazyCounter(&dma_while_quiesced_, "nic.dma_while_quiesced")->Add();
      rx_queue_.pop_front();
    }
    return;
  }
  while (!rx_queue_.empty()) {
    const TimeNs now = ev_->now();
    if (rx_engine_free_ > now) {
      if (!rx_pump_scheduled_) {
        rx_pump_scheduled_ = true;
        ev_->ScheduleAt(rx_engine_free_, [this] {
          rx_pump_scheduled_ = false;
          PumpRx();
        });
      }
      return;
    }
    Packet packet = rx_queue_.front();
    const std::uint32_t core = packet.dst_core % rings_.size();
    RxRing& ring = rings_[core];
    // Headers are DMA'd along with the payload.
    const std::uint64_t dma_bytes = packet.wire_size();
    const std::uint64_t pages_needed = (dma_bytes + kPageSize - 1) / kPageSize;
    if (AvailableRxPages(core) < pages_needed) {
      // Ring empty: the host is not replenishing fast enough.
      rx_queue_.pop_front();
      rx_buffer_used_ -= packet.wire_size();
      drops_nodesc_->Add();
      trace_.Instant("nic", "drop_nodesc", now);
      continue;
    }
    rx_queue_.pop_front();

    // Consume pages from the head descriptor(s) and build DMA segments.
    // Scratch + a small pointer array: no per-packet allocation. (A packet
    // touches at most one descriptor per page it needs; jumbo configs beyond
    // the inline array take the heap fallback.)
    seg_scratch_.clear();
    RxDesc* touched_inline[16];
    std::vector<RxDesc*> touched_heap;
    RxDesc** touched = touched_inline;
    if (pages_needed > 16) {
      touched_heap.resize(pages_needed);
      touched = touched_heap.data();
    }
    std::uint32_t touched_n = 0;
    std::uint64_t remaining = dma_bytes;
    for (auto& desc : ring.descs) {
      if (desc->retired) {
        continue;
      }
      const std::size_t before = seg_scratch_.size();
      while (remaining > 0 && !desc->exhausted()) {
        const DmaMapping& m = desc->mappings[desc->next_page++];
        --ring.avail_pages;
        const std::uint32_t len =
            remaining > kPageSize ? static_cast<std::uint32_t>(kPageSize)
                                  : static_cast<std::uint32_t>(remaining);
        seg_scratch_.push_back(DmaSegment{m.iova, len});
        remaining -= len;
      }
      if (seg_scratch_.size() > before) {
        touched[touched_n++] = desc.get();
        ++desc->outstanding_packets;
      }
      if (remaining == 0) {
        break;
      }
    }

    MaybeFetchDescriptors(&ring, now);
    const DmaTiming timing = rc_->DmaWrite(now, seg_scratch_);
    rx_engine_free_ = timing.link_done;
    if (timing.commit_done > last_commit_done_) {
      last_commit_done_ = timing.commit_done;
    }
    rx_packets_->Add();
    rx_bytes_->Add(packet.payload);
    rx_wire_bytes_->Add(packet.wire_size());
    if (trace_.enabled()) {
      trace_.Complete("nic", "rx_packet", now, timing.commit_done, "bytes",
                      static_cast<double>(packet.wire_size()), "core",
                      static_cast<double>(core));
      trace_.Counter("nic", "rx_buffer_used", now, static_cast<double>(rx_buffer_used_));
    }

    if (touched_n <= kInlineTouchedDescs) {
      // Hot path: the whole commit context fits in the event record.
      TouchedDescs set;
      for (std::uint32_t i = 0; i < touched_n; ++i) {
        set.d[i] = touched[i];
      }
      set.n = static_cast<std::uint16_t>(touched_n);
      set.core = static_cast<std::uint16_t>(core);
      auto commit = [this, packet, set, epoch = quiesce_epoch_] {
        if (epoch != quiesce_epoch_) {
          // The ring was torn down while this DMA drained: the bytes landed
          // in still-owned frames (teardown waits for drain_done), but no
          // stale delivery or CQE may reach the rebooted driver.
          return;
        }
        CommitRx(packet, set.core, set.d.data(), set.n);
      };
      static_assert(sizeof(commit) <= EventQueue::kInlinePayloadBytes,
                    "Rx commit closure must stay inline in the event record");
      ev_->ScheduleAt(timing.commit_done, std::move(commit));
    } else {
      std::vector<RxDesc*> set(touched, touched + touched_n);
      ev_->ScheduleAt(timing.commit_done,
                      [this, packet, core, set = std::move(set), epoch = quiesce_epoch_] {
        if (epoch != quiesce_epoch_) {
          return;
        }
        CommitRx(packet, core, set.data(), static_cast<std::uint32_t>(set.size()));
      });
    }
  }
}

void Nic::CommitRx(const Packet& packet, std::uint32_t core, RxDesc* const* descs,
                   std::uint32_t count) {
  rx_buffer_used_ -= packet.wire_size();
  if (deliver_) {
    deliver_(packet, core);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    --descs[i]->outstanding_packets;
    RetireIfComplete(core, descs[i]);
  }
}

bool Nic::EnqueueTx(const Packet& packet, std::vector<DmaMapping> mappings, std::uint32_t core) {
  if (quiesced_) {
    LazyCounter(&tx_quiesced_drops_, "nic.tx_quiesced_drops")->Add();
    return false;
  }
  if (!GateOnCapability(mappings, &tx_engine_free_)) {
    return false;  // refused enqueue: qdisc-style loss, transport recovers
  }
  TxQueue& q = tx_queues_[core % tx_queues_.size()];
  if (q.bytes + packet.wire_size() > kTxQueueLimitBytes) {
    tx_drops_->Add();
    trace_.Instant("nic", "tx_drop", ev_->now());
    return false;
  }
  q.bytes += packet.wire_size();
  q.work.push_back(TxWork{packet, std::move(mappings), core});
  PumpTx();
  return true;
}

bool Nic::TxQueuesEmpty() const {
  for (const TxQueue& q : tx_queues_) {
    if (!q.work.empty()) {
      return false;
    }
  }
  return true;
}

Nic::TxWork Nic::NextTxWork() {
  // Round-robin across per-core queues.
  for (std::size_t i = 0; i < tx_queues_.size(); ++i) {
    TxQueue& q = tx_queues_[tx_rr_next_];
    tx_rr_next_ = (tx_rr_next_ + 1) % tx_queues_.size();
    if (!q.work.empty()) {
      TxWork work = std::move(q.work.front());
      q.work.pop_front();
      q.bytes -= work.packet.wire_size();
      return work;
    }
  }
  return TxWork{};
}

void Nic::PumpTx() {
  if (quiesced_) {
    for (TxQueue& q : tx_queues_) {
      while (!q.work.empty()) {
        LazyCounter(&dma_while_quiesced_, "nic.dma_while_quiesced")->Add();
        q.bytes -= q.work.front().packet.wire_size();
        q.work.pop_front();
      }
    }
    return;
  }
  while (!TxQueuesEmpty() && tx_inflight_ < kTxMaxInflight) {
    const TimeNs now = ev_->now();
    if (tx_engine_free_ > now) {
      if (!tx_pump_scheduled_) {
        tx_pump_scheduled_ = true;
        ev_->ScheduleAt(tx_engine_free_, [this] {
          tx_pump_scheduled_ = false;
          PumpTx();
        });
      }
      return;
    }
    TxWork work = NextTxWork();

    // Fetch the payload (headers + data) from the mapped pages.
    seg_scratch_.clear();
    std::uint64_t remaining = work.packet.wire_size();
    for (const DmaMapping& m : work.mappings) {
      const std::uint32_t len = remaining > kPageSize
                                    ? static_cast<std::uint32_t>(kPageSize)
                                    : static_cast<std::uint32_t>(remaining);
      seg_scratch_.push_back(DmaSegment{m.iova, len});
      remaining -= len;
      if (remaining == 0) {
        break;
      }
    }
    const DmaTiming timing = rc_->DmaRead(now, seg_scratch_);
    tx_engine_free_ = timing.link_done;
    if (timing.commit_done > last_commit_done_) {
      last_commit_done_ = timing.commit_done;
    }
    tx_bytes_->Add(work.packet.payload);
    trace_.Complete("nic", "tx_fetch", now, timing.commit_done, "bytes",
                    static_cast<double>(work.packet.wire_size()), "core",
                    static_cast<double>(work.core));

    // TSO segmentation on egress: cut the fetched segment into MTU-sized
    // wire packets, serialized at line rate once the payload is on the NIC.
    const std::uint32_t wire_mss =
        config_.mtu_bytes > kHeaderBytes ? config_.mtu_bytes - kHeaderBytes : 1;
    std::uint64_t off = 0;
    do {
      std::uint32_t chunk = wire_mss;
      if (off + chunk > work.packet.payload) {
        chunk = static_cast<std::uint32_t>(work.packet.payload - off);
      }
      Packet wire = work.packet;
      wire.seq = work.packet.seq + off;
      wire.payload = chunk;
      TimeNs depart = timing.commit_done > egress_free_ ? timing.commit_done : egress_free_;
      depart += SerializationDelayNs(wire.wire_size(), kLineGbps);
      egress_free_ = depart;
      tx_packets_->Add();
      if (wire_tx_) {
        wire_tx_(wire, depart);
      }
      off += chunk;
    } while (off < work.packet.payload);

    // The DMA engine slot frees when the payload fetch commits, but the
    // driver's completion (CQE) fires only after the last wire packet has
    // left — that is when TSQ budget and the mappings are released.
    ++tx_inflight_;
    ev_->ScheduleAt(timing.commit_done, [this] {
      --tx_inflight_;
      PumpTx();
    });
    const TimeNs completed = egress_free_;
    // Move the TxWork (packet + mapping vector) into the event payload: the
    // CQE context rides inline in the record, no copy, no allocation.
    ev_->ScheduleAt(completed, [this, work = std::move(work),
                                epoch = quiesce_epoch_]() mutable {
      if (epoch != quiesce_epoch_) {
        return;  // CQE for a ring torn down mid-flight: swallowed
      }
      if (tx_complete_) {
        tx_complete_(work.packet, std::move(work.mappings), work.core);
      }
    });
  }
}

}  // namespace fsio

#include "src/pcie/root_complex.h"

#include <stdexcept>
#include <string>

namespace fsio {

namespace {

PcieConfig Validated(const PcieConfig& config) {
  if (config.max_payload_bytes == 0) {
    throw std::invalid_argument("PcieConfig::max_payload_bytes must be > 0, got " +
                                std::to_string(config.max_payload_bytes));
  }
  if (config.max_outstanding_reads == 0) {
    throw std::invalid_argument("PcieConfig::max_outstanding_reads must be > 0, got " +
                                std::to_string(config.max_outstanding_reads));
  }
  if (!(config.link_gbps > 0)) {
    throw std::invalid_argument("PcieConfig::link_gbps must be > 0, got " +
                                std::to_string(config.link_gbps));
  }
  if (!(config.commit_bytes_per_ns > 0)) {
    throw std::invalid_argument("PcieConfig::commit_bytes_per_ns must be > 0, got " +
                                std::to_string(config.commit_bytes_per_ns));
  }
  return config;
}

// Entries the RC buffer can hold when every TLP is full-size: it admits a
// TLP only while the bytes it holds fit, or when it is empty.
std::size_t FullSizeRcEntries(const PcieConfig& config) {
  return static_cast<std::size_t>(config.rc_buffer_bytes / config.max_payload_bytes + 1);
}

}  // namespace

RootComplex::RootComplex(const PcieConfig& config, Iommu* iommu, MemorySystem* memory,
                         StatsRegistry* stats)
    : config_(Validated(config)),
      full_tlp_wire_ns_(SerializationDelayNs(config.max_payload_bytes + kTlpHeaderBytes,
                                             config.link_gbps)),
      full_tlp_drain_ns_(ComputeDrainNs(config.max_payload_bytes)),
      request_wire_ns_(SerializationDelayNs(kTlpHeaderBytes, config.link_gbps)),
      iommu_(iommu),
      memory_(memory),
      rc_buffer_(FullSizeRcEntries(config)),
      outstanding_reads_(config.max_outstanding_reads),
      write_tlps_(stats->Get("pcie.write_tlps")),
      read_tlps_(stats->Get("pcie.read_tlps")),
      wire_bytes_(stats->Get("pcie.wire_bytes")),
      stall_ns_(stats->Get("pcie.stall_ns")),
      faults_(stats->Get("pcie.faults")),
      backpressure_bursts_(stats->Get("pcie.backpressure_bursts")) {}

std::uint32_t RootComplex::TlpPayload(Iova iova, std::uint32_t remaining) const {
  const auto to_page_end = static_cast<std::uint32_t>(kPageSize - (iova & (kPageSize - 1)));
  std::uint32_t payload = remaining;
  if (payload > config_.max_payload_bytes) {
    payload = config_.max_payload_bytes;
  }
  return payload > to_page_end ? to_page_end : payload;
}

TimeNs RootComplex::TlpWireNs(std::uint32_t payload) const {
  return payload == config_.max_payload_bytes
             ? full_tlp_wire_ns_
             : SerializationDelayNs(payload + kTlpHeaderBytes, config_.link_gbps);
}

TimeNs RootComplex::ComputeDrainNs(std::uint32_t payload) const {
  const auto drain =
      static_cast<TimeNs>(static_cast<double>(payload) / config_.commit_bytes_per_ns);
  return drain == 0 ? 1 : drain;
}

TimeNs RootComplex::DrainNs(std::uint32_t payload) const {
  return payload == config_.max_payload_bytes ? full_tlp_drain_ns_ : ComputeDrainNs(payload);
}

TimeNs RootComplex::ApplyBackpressure(TimeNs start) {
  if (fault_injector_ != nullptr) {
    if (const FaultDecision d =
            fault_injector_->Sample(FaultKind::kRootComplexBackpressure, start);
        d.fire) {
      backpressure_bursts_->Add();
      stall_ns_->Add(d.magnitude_ns);
      return start + d.magnitude_ns;
    }
  }
  return start;
}

TimeNs RootComplex::WaitForBufferSpace(TimeNs t, std::uint32_t bytes) {
  // Free everything already committed by time t.
  while (!rc_buffer_.empty() && rc_buffer_.front().release <= t) {
    rc_buffer_occupancy_ -= rc_buffer_.front().bytes;
    rc_buffer_.pop_front();
  }
  // If the buffer cannot admit the TLP, the link stalls until the head
  // commits (commit order == arrival order, so releases are sorted).
  while (rc_buffer_occupancy_ + bytes > config_.rc_buffer_bytes && !rc_buffer_.empty()) {
    const TimeNs head = rc_buffer_.front().release;
    if (head > t) {
      stall_ns_->Add(head - t);
      // The Little's-law bottleneck made visible: link time lost waiting
      // for the head-of-line payload to drain into memory.
      trace_.Complete("pcie", "rc_stall", t, head);
      t = head;
    }
    rc_buffer_occupancy_ -= rc_buffer_.front().bytes;
    rc_buffer_.pop_front();
  }
  return t;
}

void RootComplex::ReleaseAt(TimeNs when, std::uint32_t bytes) {
  rc_buffer_.push_back(BufferedBytes{when, bytes});
  rc_buffer_occupancy_ += bytes;
}

TimeNs RootComplex::TranslateAt(Iommu* iommu, DomainId domain, Iova iova, TimeNs at,
                                bool* fault) {
  if (iommu == nullptr) {
    return at;
  }
  const TranslationResult tr = iommu->Translate(domain, iova, at);
  if (tr.fault) {
    *fault = true;
    faults_->Add();
  }
  return tr.done;
}

DmaTiming RootComplex::DmaWrite(TimeNs start, const std::vector<DmaSegment>& segments) {
  DmaTiming timing;
  start = ApplyBackpressure(start);
  TimeNs t = start;
  std::uint64_t total_bytes = 0;
  const std::uint64_t tlps_before = write_tlps_->value();
  for (const DmaSegment& seg : segments) {
    total_bytes += seg.len;
    Iommu* const iommu = seg.passthrough ? nullptr : iommu_;  // once per segment
    std::uint32_t off = 0;
    while (off < seg.len) {
      const Iova iova = seg.iova + off;
      const std::uint32_t payload = TlpPayload(iova, seg.len - off);
      write_tlps_->Add();
      // Admission: wire serialization plus RC buffer flow control.
      TimeNs send = WaitForBufferSpace(t > upstream_link_free_ ? t : upstream_link_free_, payload);
      wire_bytes_->Add(payload + kTlpHeaderBytes);
      upstream_link_free_ = send + TlpWireNs(payload);
      const TimeNs arrival = upstream_link_free_;
      t = arrival;  // the NIC streams the next TLP right behind this one

      // Lookahead translation: starts at arrival, independent of the commit
      // pointer.
      bool fault = false;
      const TimeNs translated = TranslateAt(iommu, seg.domain, iova, arrival, &fault);
      if (fault) {
        timing.fault = true;
        // Faulted transaction is dropped by the IOMMU; it occupies no
        // commit slot. Release no earlier than prior releases so the
        // release queue stays sorted.
        ReleaseAt(commit_free_ > arrival ? commit_free_ : arrival, payload);
        off += payload;
        continue;
      }
      // In-order commit: wait for predecessor commits and the translation.
      TimeNs commit_start = arrival;
      if (translated > commit_start) {
        commit_start = translated;
      }
      if (commit_free_ > commit_start) {
        commit_start = commit_free_;
      }
      commit_free_ = commit_start + DrainNs(payload);
      memory_->Post(commit_start, payload);
      ReleaseAt(commit_free_, payload);
      off += payload;
    }
  }
  timing.link_done = upstream_link_free_;
  timing.commit_done = commit_free_ > start ? commit_free_ : start;
  if (trace_.enabled()) {
    trace_.Complete("pcie", "dma_write", start, timing.commit_done, "bytes",
                    static_cast<double>(total_bytes), "tlps",
                    static_cast<double>(write_tlps_->value() - tlps_before));
    trace_.Counter("pcie", "rc_occupancy", start, static_cast<double>(rc_buffer_occupancy_));
  }
  return timing;
}

DmaTiming RootComplex::DmaRead(TimeNs start, const std::vector<DmaSegment>& segments) {
  DmaTiming timing;
  start = ApplyBackpressure(start);
  TimeNs t = start;
  TimeNs last_completion = start;
  for (const DmaSegment& seg : segments) {
    Iommu* const iommu = seg.passthrough ? nullptr : iommu_;  // once per segment
    std::uint32_t off = 0;
    while (off < seg.len) {
      const Iova iova = seg.iova + off;
      const std::uint32_t payload = TlpPayload(iova, seg.len - off);
      read_tlps_->Add();
      // Bounded outstanding read requests.
      while (!outstanding_reads_.empty() && outstanding_reads_.front() <= t) {
        outstanding_reads_.pop_front();
      }
      if (outstanding_reads_.size() >= config_.max_outstanding_reads) {
        const TimeNs free_at = outstanding_reads_.front();
        if (free_at > t) {
          stall_ns_->Add(free_at - t);
          t = free_at;
        }
        outstanding_reads_.pop_front();
      }
      // Request TLP upstream (header only).
      TimeNs send = t > upstream_link_free_ ? t : upstream_link_free_;
      wire_bytes_->Add(kTlpHeaderBytes);
      upstream_link_free_ = send + request_wire_ns_;
      const TimeNs arrival = upstream_link_free_;
      t = arrival;

      bool fault = false;
      const TimeNs translated = TranslateAt(iommu, seg.domain, iova, arrival, &fault);
      if (fault) {
        timing.fault = true;
        off += payload;
        continue;
      }
      // Memory read (latency + bank occupancy), then a completion TLP back
      // over the downstream link.
      const TimeNs data_ready = memory_->Read(translated, payload);
      TimeNs comp_start = data_ready > downstream_link_free_ ? data_ready : downstream_link_free_;
      wire_bytes_->Add(payload + kTlpHeaderBytes);
      downstream_link_free_ = comp_start + TlpWireNs(payload);
      const TimeNs completion = downstream_link_free_;
      outstanding_reads_.push_back(completion);
      if (completion > last_completion) {
        last_completion = completion;
      }
      off += payload;
    }
  }
  timing.link_done = upstream_link_free_ > start ? upstream_link_free_ : start;
  timing.commit_done = last_completion;
  return timing;
}

}  // namespace fsio

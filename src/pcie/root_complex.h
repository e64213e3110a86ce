// PCIe link and root-complex (IIO) model.
//
// This is where memory-protection latency turns into throughput loss. The
// model captures the three mechanisms the paper's analysis rests on:
//
//   1. TLP granularity: a DMA is executed as max_payload-sized transactions
//      that never cross a 4 KB boundary; each transaction's IOVA must be
//      translated at the root complex.
//   2. Bounded buffering: the processor-side end of PCIe buffers only ~100
//      cachelines. A transaction occupies buffer space from wire arrival
//      until its payload commits; when the buffer is full the link stalls
//      (Little's law bounds throughput at buffer / latency).
//   3. In-order commit with lookahead translation: posted writes commit in
//      arrival order, but translations for buffered transactions proceed
//      ahead of the commit pointer. A cheap IOTLB miss (1 PTE read, the F&S
//      case) therefore hides under the previous page's drain time, while
//      multi-read walks and Rx/Tx interference stall the pipe.
//
// Reads (Tx datapath and descriptor fetches) issue request TLPs upstream,
// are translated, access memory, and return completions downstream; a
// bounded number of outstanding reads models NIC read parallelism — which is
// why Tx tolerates more translation-latency inflation than Rx (§4.1).
#ifndef FASTSAFE_SRC_PCIE_ROOT_COMPLEX_H_
#define FASTSAFE_SRC_PCIE_ROOT_COMPLEX_H_

#include <cstdint>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/iommu/iommu.h"
#include "src/mem/address.h"
#include "src/mem/memory_system.h"
#include "src/simcore/fifo_ring.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/trace/tracer.h"

namespace fsio {

struct PcieConfig {
  double link_gbps = 128.0;            // PCIe 3.0 x16 payload-rate approximation
  std::uint32_t max_payload_bytes = 256;
  std::uint64_t rc_buffer_bytes = 6400;  // ~100 cachelines of RC-side buffering
  // Payload drain rate from the RC buffer into the memory fabric. With DDIO
  // disabled (the paper's default) writes drain at DRAM-write rates; DDIO
  // would drain into the LLC roughly twice as fast.
  double commit_bytes_per_ns = 16.0;
  std::uint32_t max_outstanding_reads = 64;
};

// One contiguous piece of a DMA in IOVA space. Segments never cross page
// boundaries when produced by the NIC (one descriptor page per segment).
// `domain` is the protection domain the issuing function belongs to (the
// PASID carried in the TLP prefix); host-domain traffic leaves it default.
// `passthrough` marks a function whose domain bypasses the IOMMU (kOff,
// kCapability): its addresses are physical and go to memory untranslated.
struct DmaSegment {
  Iova iova = 0;
  std::uint32_t len = 0;
  DomainId domain{};
  bool passthrough = false;
};

// Timing of one DMA operation.
struct DmaTiming {
  TimeNs link_done = 0;    // last TLP accepted on the wire (NIC may pipeline
                           // the next DMA from this point)
  TimeNs commit_done = 0;  // last byte committed to / fetched from memory
  bool fault = false;      // any transaction faulted in the IOMMU
};

class RootComplex {
 public:
  static constexpr std::uint32_t kTlpHeaderBytes = 26;  // TLP + DLLP + framing overhead

  // `iommu` may be null: memory protection disabled (bypass, no translation).
  // Throws std::invalid_argument, naming the field, unless max_payload_bytes,
  // max_outstanding_reads, link_gbps and commit_bytes_per_ns are all > 0.
  RootComplex(const PcieConfig& config, Iommu* iommu, MemorySystem* memory,
              StatsRegistry* stats);

  // Rx datapath: posted memory writes of `segments`, issued by the NIC at
  // `start`. Returns wire/commit completion times.
  DmaTiming DmaWrite(TimeNs start, const std::vector<DmaSegment>& segments);

  // Tx datapath / descriptor fetch: memory read of `segments` issued at
  // `start`; commit_done is the arrival of the last completion at the NIC.
  DmaTiming DmaRead(TimeNs start, const std::vector<DmaSegment>& segments);

  const PcieConfig& config() const { return config_; }

  // Optional fault injection: kRootComplexBackpressure stalls the upstream
  // link at the start of a DMA (credit starvation burst).
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  // Observability: per-DMA spans, RC-buffer stalls and occupancy samples.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

 private:
  // Applies an injected backpressure burst to the DMA's start time.
  TimeNs ApplyBackpressure(TimeNs start);

  // Blocks until the RC buffer can admit `bytes` at or after `t`; returns
  // the admission time.
  TimeNs WaitForBufferSpace(TimeNs t, std::uint32_t bytes);
  void ReleaseAt(TimeNs when, std::uint32_t bytes);
  TimeNs TranslateAt(Iommu* iommu, DomainId domain, Iova iova, TimeNs at, bool* fault);

  // Payload of the TLP at `iova` with `remaining` bytes left in its segment:
  // at most max_payload_bytes, and never across a 4 KB boundary.
  std::uint32_t TlpPayload(Iova iova, std::uint32_t remaining) const;
  // Wire time of a TLP carrying `payload` bytes, and the time its payload
  // takes to drain into memory. Full-size TLPs use the constructor's values.
  TimeNs TlpWireNs(std::uint32_t payload) const;
  TimeNs DrainNs(std::uint32_t payload) const;
  TimeNs ComputeDrainNs(std::uint32_t payload) const;

  PcieConfig config_;
  TimeNs full_tlp_wire_ns_;   // max_payload_bytes + header on the wire
  TimeNs full_tlp_drain_ns_;  // max_payload_bytes into memory
  TimeNs request_wire_ns_;    // header-only read request on the wire
  Iommu* iommu_;
  MemorySystem* memory_;
  FaultInjector* fault_injector_ = nullptr;
  TraceScope trace_;

  TimeNs upstream_link_free_ = 0;    // NIC -> RC (writes + read requests)
  TimeNs downstream_link_free_ = 0;  // RC -> NIC (read completions)
  TimeNs commit_free_ = 0;           // in-order commit pointer

  struct BufferedBytes {
    TimeNs release;
    std::uint32_t bytes;
  };
  FifoRing<BufferedBytes> rc_buffer_;  // sorted by release time
  std::uint64_t rc_buffer_occupancy_ = 0;

  FifoRing<TimeNs> outstanding_reads_;  // completion times of reads in flight

  Counter* write_tlps_;
  Counter* read_tlps_;
  Counter* wire_bytes_;
  Counter* stall_ns_;
  Counter* faults_;
  Counter* backpressure_bursts_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_PCIE_ROOT_COMPLEX_H_

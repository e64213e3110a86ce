// NIC device model: Rx/Tx DMA engines, multi-page descriptor rings, finite
// input buffering.
//
// Mirrors the paper's Mellanox CX-5 description: per-core Rx rings whose
// descriptors cover 64 pages each (multiple packets DMA through one
// descriptor), a shared input buffer that tail-drops when the PCIe/IOMMU
// path cannot drain fast enough (the paper's host drops), and a Tx engine
// that fetches packet payloads with PCIe reads. Optionally the NIC also
// fetches descriptors through DMA reads on the ring's (persistently mapped)
// IOVAs, adding the descriptor-translation IOTLB pressure the paper
// mentions.
//
// The NIC knows nothing about protection modes: the driver hands it
// IOVA-filled descriptors and receives completion callbacks.
#ifndef FASTSAFE_SRC_NIC_NIC_H_
#define FASTSAFE_SRC_NIC_NIC_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/driver/dma_api.h"
#include "src/faults/fault_injector.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/event_queue.h"
#include "src/simcore/fifo_ring.h"
#include "src/stats/counters.h"
#include "src/trace/tracer.h"
#include "src/transport/packet.h"

namespace fsio {

struct NicConfig {
  std::uint64_t rx_buffer_bytes = 1ull << 20;
  // Wire MTU (headers included). TSO segments handed to the Tx engine are
  // cut into MTU-sized wire packets on egress.
  std::uint32_t mtu_bytes = 4096;
  bool model_descriptor_fetch = true;
};

class Nic {
 public:
  // A packet finished DMA into host memory; hand it to the stack on `core`.
  using DeliverFn = std::function<void(const Packet&, std::uint32_t core)>;
  // A descriptor's pages are fully consumed and all DMAs committed.
  using DescCompleteFn = std::function<void(std::uint32_t core, std::vector<DmaMapping>)>;
  // A Tx packet's payload was fully fetched; driver should unmap.
  using TxCompleteFn =
      std::function<void(const Packet&, std::vector<DmaMapping>, std::uint32_t core)>;
  // A Tx packet leaves on the wire at `departure`.
  using WireTxFn = std::function<void(const Packet&, TimeNs departure)>;

  Nic(const NicConfig& config, std::uint32_t cores, EventQueue* ev, RootComplex* rc,
      StatsRegistry* stats);

  // kCapability protection: validation the device runs when a descriptor's
  // buffer enters its queues (Rx post/fetch, Tx enqueue). Returns whether
  // the enqueue may proceed plus the device-side lookup cost, which the NIC
  // charges to the owning engine.
  using CapCheckFn =
      std::function<DmaApi::DeviceCheckResult(const std::vector<DmaMapping>&, TimeNs now)>;
  void SetCapabilityCheck(CapCheckFn fn) { cap_check_ = std::move(fn); }

  // Optional fault injection: kDescCompletionReorder delays a descriptor
  // completion, kDescCompletionDuplicate delivers the same completion twice
  // (misbehaving-device model; the driver must tolerate both).
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  // Observability: descriptor lifecycle spans, packet DMA spans, drop instants.
  void SetTrace(const TraceScope& trace) { trace_ = trace; }

  void SetDeliver(DeliverFn fn) { deliver_ = std::move(fn); }
  void SetDescComplete(DescCompleteFn fn) { desc_complete_ = std::move(fn); }
  void SetTxComplete(TxCompleteFn fn) { tx_complete_ = std::move(fn); }
  void SetWireTx(WireTxFn fn) { wire_tx_ = std::move(fn); }

  // Registers the (persistently mapped) descriptor-ring IOVA region for a
  // core, used for descriptor-fetch DMA reads.
  void SetRingIova(std::uint32_t core, Iova base, std::uint64_t pages);

  // Driver posts a fresh Rx descriptor (its pages already mapped).
  void PostRxDescriptor(std::uint32_t core, std::vector<DmaMapping> mappings);

  // Unused page slots of `core`'s posted descriptors.
  std::uint64_t AvailableRxPages(std::uint32_t core) const;

  // True if `core`'s Tx queue can accept a packet of this wire size.
  bool CanAcceptTx(std::uint32_t core, std::uint32_t wire_bytes) const {
    const TxQueue& q = tx_queues_[core % tx_queues_.size()];
    return q.bytes + wire_bytes <= kTxQueueLimitBytes;
  }

  // Stack hands over a Tx packet whose payload pages are already mapped.
  // Returns false (dropping the packet, qdisc-style) if the queue is full;
  // check CanAcceptTx() first when ownership of the mappings matters.
  bool EnqueueTx(const Packet& packet, std::vector<DmaMapping> mappings, std::uint32_t core);

  // Wire delivery from the switch.
  void OnWireArrival(const Packet& packet);

  // Host crash-recovery quiesce protocol (driver-side teardown step 1).
  // Everything the device owns is dropped in one shot: descriptor-fetch and
  // both DMA engines stop, posted Rx descriptors and queued Tx work are
  // discarded with their mappings (the host rebuilds its whole driver
  // stack, so none is unmapped one by one), buffered wire packets are
  // discarded, and scheduled completion callbacks from before the quiesce
  // are invalidated (epoch guard) so no stale delivery or CQE lands in the
  // torn-down ring. Returns the time the last in-flight PCIe write/read
  // commits: the driver must not reclaim frames before it. While quiesced,
  // arriving wire packets and Tx enqueues are dropped (counted lazily as
  // "nic.rx_quiesced_drops" / "nic.tx_quiesced_drops"); any DMA the device
  // would still issue counts "nic.dma_while_quiesced" — the cross-host
  // oracle invariant that must stay zero. Resume() re-enables the engines;
  // the driver re-registers rings (SetRingIova + PostRxDescriptor)
  // afterwards.
  TimeNs Quiesce(TimeNs now);
  void Resume() { quiesced_ = false; }

  std::uint64_t rx_buffer_used() const { return rx_buffer_used_; }

 private:
  static constexpr double kLineGbps = 100.0;
  static constexpr std::uint32_t kDescFetchEveryPackets = 16;  // one 512 B fetch per N packets
  // Tx DMA pipeline depth: packets whose payload fetch may be in flight
  // concurrently. Bounds how far the engine runs ahead of completions.
  static constexpr std::uint32_t kTxMaxInflight = 8;
  // Per-core Tx queue bound (NIC ring + qdisc backlog). When exceeded the
  // segment is dropped locally, the loss signal that keeps sender cwnd
  // bounded. Queues are served round-robin (one hardware TX queue per core,
  // XPS-style), so a latency-sensitive core is not stuck behind bulk cores.
  static constexpr std::uint64_t kTxQueueLimitBytes = 1ull << 20;

  struct RxDesc {
    std::vector<DmaMapping> mappings;  // moved into the completion on retirement
    std::uint32_t next_page = 0;
    std::uint32_t outstanding_packets = 0;
    bool retired = false;
    TimeNs posted_at = 0;  // when the driver posted it (descriptor lifecycle span)
    bool exhausted() const { return next_page >= mappings.size(); }
  };
  struct RxRing {
    std::deque<std::shared_ptr<RxDesc>> descs;
    Iova ring_iova = 0;
    std::uint64_t ring_pages = 0;
    std::uint64_t fetch_cursor = 0;
    std::uint64_t packets_since_fetch = 0;
    // Unconsumed pages across live descriptors, maintained incrementally so
    // AvailableRxPages() is O(1) on the per-packet path (it used to scan the
    // descriptor deque per call).
    std::uint64_t avail_pages = 0;
  };
  struct TxWork {
    Packet packet;
    std::vector<DmaMapping> mappings;
    std::uint32_t core = 0;
  };

  void PumpRx();
  void PumpTx();
  bool TxQueuesEmpty() const;
  TxWork NextTxWork();
  void MaybeFetchDescriptors(RxRing* ring, TimeNs at);
  void RetireIfComplete(std::uint32_t core, RxDesc* desc);
  // Rx DMA commit: release buffer space, deliver, unref the touched
  // descriptors. `descs` pointers stay valid until this runs — a touched
  // descriptor holds an outstanding_packets reference, and the quiesce epoch
  // guard keeps torn-down rings out entirely.
  void CommitRx(const Packet& packet, std::uint32_t core, RxDesc* const* descs,
                std::uint32_t count);

  // Touched-descriptor set captured inline in the commit event. MTU-sized
  // packets span at most ceil(mtu/4 KB) descriptors; larger (unusual-config)
  // packets fall back to a heap-allocated capture.
  static constexpr std::uint32_t kInlineTouchedDescs = 3;
  struct TouchedDescs {
    std::array<RxDesc*, kInlineTouchedDescs> d;
    std::uint16_t n = 0;
    std::uint16_t core = 0;
  };

  NicConfig config_;
  EventQueue* ev_;
  RootComplex* rc_;
  StatsRegistry* stats_;
  FaultInjector* fault_injector_ = nullptr;
  TraceScope trace_;

  bool quiesced_ = false;
  std::uint64_t quiesce_epoch_ = 0;  // invalidates pre-quiesce callbacks
  TimeNs last_commit_done_ = 0;      // latest in-flight DMA commit time

  // Runs the capability check for one descriptor's mappings and charges the
  // lookup cost to `*engine_free`. Returns false when the enqueue must be
  // refused.
  bool GateOnCapability(const std::vector<DmaMapping>& mappings, TimeNs* engine_free);

  DeliverFn deliver_;
  DescCompleteFn desc_complete_;
  TxCompleteFn tx_complete_;
  WireTxFn wire_tx_;
  CapCheckFn cap_check_;

  std::vector<RxRing> rings_;
  FifoRing<Packet> rx_queue_{64};
  // Per-packet scratch, reused across pump iterations so building a
  // packet's DMA segments allocates nothing (separate buffers: a descriptor
  // fetch can be issued while PumpRx is still assembling its segments).
  std::vector<DmaSegment> seg_scratch_;
  std::vector<DmaSegment> fetch_scratch_;
  std::uint64_t rx_buffer_used_ = 0;
  TimeNs rx_engine_free_ = 0;
  bool rx_pump_scheduled_ = false;

  struct TxQueue {
    FifoRing<TxWork> work{16};
    std::uint64_t bytes = 0;
  };
  std::vector<TxQueue> tx_queues_;  // one per core, served round-robin
  std::uint32_t tx_rr_next_ = 0;
  TimeNs tx_engine_free_ = 0;
  TimeNs egress_free_ = 0;
  bool tx_pump_scheduled_ = false;
  std::uint32_t tx_inflight_ = 0;

  Counter* rx_packets_;
  Counter* rx_bytes_;
  Counter* rx_wire_bytes_;
  Counter* drops_buffer_;
  Counter* drops_nodesc_;
  Counter* tx_packets_;
  Counter* tx_bytes_;
  Counter* tx_drops_;
  Counter* desc_fetches_;
  Counter* completion_reorders_;
  Counter* completion_duplicates_;
  Counter* rx_quiesced_drops_ = nullptr;   // lazy: quiesce-path only
  Counter* tx_quiesced_drops_ = nullptr;
  Counter* dma_while_quiesced_ = nullptr;
  Counter* cap_enqueue_rejects_ = nullptr;  // lazy: capability-mode only
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_NIC_NIC_H_

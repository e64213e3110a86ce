// Host model: memory, IOMMU, IOVA allocator, DMA API, root complex, NIC,
// CPU cores and transport endpoints, assembled into one server.
//
// The host implements the paper's Figure 1 datapath end to end:
//   Rx: wire -> NIC buffer -> (descriptor pages, IOVAs) -> PCIe/IOMMU DMA ->
//       per-core NAPI processing -> transport (ACK generation) -> app bytes;
//       descriptor completion -> driver unmap + invalidations + replenish.
//   Tx: transport segment -> per-page dma_map on the sending core -> NIC
//       PCIe reads -> wire; completion -> driver unmap + invalidations.
// CPU costs of the stack and of memory-protection operations are charged to
// the owning core, so CPU-bottleneck effects (§4.4) emerge naturally.
#ifndef FASTSAFE_SRC_HOST_HOST_H_
#define FASTSAFE_SRC_HOST_HOST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/driver/dma_api.h"
#include "src/driver/protection.h"
#include "src/driver/protection_domain.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/recovery_protocol.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/nic/nic.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/event_queue.h"
#include "src/simcore/fifo_ring.h"
#include "src/stats/counters.h"
#include "src/stats/reuse_distance.h"
#include "src/trace/tracer.h"
#include "src/transport/dctcp.h"
#include "src/transport/packet.h"

namespace fsio {

struct HostCpuConfig {
  // TCP-Small-Queues limit: bytes one flow may hold in the local NIC Tx path
  // before further segments wait in the stack (resumed on Tx completion).
  std::uint64_t tsq_limit_bytes = 128 * 1024;
};

struct HostConfig {
  std::uint32_t host_id = 0;
  std::uint32_t cores = 5;
  ProtectionMode mode = ProtectionMode::kStrict;
  std::uint32_t mtu_bytes = 4096;  // wire MTU, headers included
  std::uint32_t ring_size_pkts = 256;       // per core, in MTU packets
  std::uint32_t pages_per_desc = 64;
  // Back Rx descriptors with 2 MB huge frames and map each descriptor as a
  // single PT-L3 leaf entry (forces pages_per_desc = 512). Used for the
  // F&S-with-hugepages extension and implied by kHugepagePersistent.
  bool use_hugepages = false;
  HostCpuConfig cpu;
  MemoryConfig memory;
  IommuConfig iommu;
  PcieConfig pcie;
  NicConfig nic;
  IovaAllocatorConfig iova;
  DmaApiConfig dma;  // `dma.mode` is overwritten from `mode`
  bool track_l3_locality = false;
  // Intentional recovery bug for chaos testing: skip the global IOMMU
  // invalidation during crash recovery, leaving stale IOTLB/PT-cache entries
  // that translate re-used IOVAs to pre-crash frames. The cross-host safety
  // oracle must catch the resulting kStaleDmaTranslation /
  // kDmaToReclaimedFrame violations.
  bool skip_recovery_invalidation = false;
};

// Host lifecycle for cluster-scale fault experiments. Transitions:
//   kRunning --Crash()--> kCrashed --Recover()--> kRecovering
//   kRecovering --(NIC drain complete)--> kRunning
enum class HostState { kRunning, kCrashed, kRecovering };

class Host {
 public:
  static constexpr std::uint32_t kRingPagesMultiplier = 2;  // NIC gets 2x ring-size worth of pages

  using WireOutFn = std::function<void(const Packet&, TimeNs departure)>;

  Host(const HostConfig& config, EventQueue* ev);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // Wiring to the network fabric.
  void SetWireOut(WireOutFn fn) { wire_out_ = std::move(fn); }
  void DeliverFromWire(const Packet& packet) { nic_->OnWireArrival(packet); }

  // Transport endpoints. `local_core` is the core running this endpoint
  // (aRFS: also the core the peer steers this flow's packets to).
  DctcpSender* AddSender(std::uint64_t flow_id, std::uint32_t local_core,
                         std::uint32_t dst_host, std::uint32_t dst_core,
                         const DctcpConfig& config);
  DctcpReceiver* AddReceiver(std::uint64_t flow_id, std::uint32_t local_core,
                             std::uint32_t dst_host, std::uint32_t dst_core,
                             const DctcpConfig& config,
                             DctcpReceiver::DeliverFn app_deliver);

  // Observability: hands per-component TraceScopes (tagged with this host's
  // id) to the IOMMU, root complex, NIC, DMA API and transport endpoints.
  // Call before or after AddSender/AddReceiver; later endpoints inherit it.
  void SetTracer(Tracer* tracer);

  StatsRegistry& stats() { return stats_; }
  const HostConfig& config() const { return config_; }
  Nic& nic() { return *nic_; }
  Iommu* iommu() { return iommu_.get(); }
  DmaApi& dma() { return driver_.dma(); }
  EventQueue& ev() { return *ev_; }
  ReuseDistanceTracker& l3_tracker() { return l3_tracker_; }

  // Total in-order bytes delivered to applications across all receivers.
  std::uint64_t app_bytes_delivered() const;

  // Charges application CPU work to a core (request processing, response
  // construction). Subsequent stack work on that core queues behind it.
  void ChargeCpu(std::uint32_t core_idx, TimeNs ns);

  // Aggregate CPU busy time across cores (utilization diagnostics).
  TimeNs total_cpu_busy_ns() const { return cpu_busy_ns_; }

  // Safety harness wiring: attaches the oracle, invariant registry and fault
  // injector to every component (IOMMU, DMA API, allocators, root complex,
  // NIC). Survives crash recovery — the rebuilt driver stack is re-wired
  // automatically. Any argument may be null.
  void EnableSafetyInstrumentation(SafetyOracle* oracle, InvariantRegistry* invariants,
                                   FaultInjector* injector);

  // Host crash at the current sim time: cores stop, pending stack work is
  // discarded, transport endpoints go silent. The NIC is deliberately NOT
  // stopped — in-flight and newly arriving DMAs keep landing in the crashed
  // host's memory (which is still owned, so still safe) until Recover()
  // runs the quiesce protocol. Counted as "host.crashes"; packets the dead
  // stack would have consumed count "host.crash_rx_dropped" (lazily).
  void Crash();

  // Begins the reboot: quiesce the NIC (stop descriptor fetch, strip posted
  // descriptors and queued Tx work, epoch-invalidate scheduled completions),
  // wait for in-flight PCIe traffic to drain, then tear down — unmap all
  // live descriptors, reclaim every frame, rebuild the driver stack (page
  // table, IOVA allocator, DMA API) on the surviving IOMMU hardware, issue a
  // global invalidation (unless skip_recovery_invalidation), and re-register
  // the rings. "host.recoveries" increments when the host is running again.
  void Recover();

  HostState state() const { return state_; }

 private:
  struct Core {
    TimeNs busy_until = 0;
    bool running = false;
    FifoRing<Packet> rx_queue{64};
    FifoRing<std::vector<DmaMapping>> desc_completions{8};
    FifoRing<std::vector<DmaMapping>> tx_unmaps{16};
  };

  // Fills in the fields `config` implies: the DMA API's mode and descriptor
  // shape, hugepage descriptors and per-core counts.
  static HostConfig Normalize(HostConfig config);
  void SetupRings();
  void FinishRecovery();
  // Vector recycling: NAPI batches and per-packet Tx mapping vectors cycle
  // host -> NIC -> host, so their capacity is pooled instead of reallocated
  // every packet. Rx descriptor vectors are not pooled (MapPages fills a
  // fresh one, freed after its unmap). With the queues on FifoRing, the
  // steady-state host/NIC path allocates only per descriptor: frame list,
  // mapping vector and RxDesc, under 0.1 per received packet
  // (tests/heap_test.cc).
  std::vector<Packet> TakeBatchVec();
  std::vector<DmaMapping> TakeMapVec();
  void ScheduleCore(std::uint32_t core_idx);
  void RunCore(std::uint32_t core_idx);
  void ReplenishRing(std::uint32_t core_idx, TimeNs at, TimeNs* cpu_ns);
  void RouteToTransport(const Packet& packet);
  void TransmitFromCore(const Packet& packet, std::uint32_t core_idx);
  void OnTxSegmentComplete(const Packet& packet);

  HostConfig config_;
  EventQueue* ev_;
  StatsRegistry stats_;
  std::unique_ptr<MemorySystem> memory_;
  FrameAllocator frames_;
  std::unique_ptr<Iommu> iommu_;  // null when the mode bypasses the IOMMU (kOff, kCapability)
  ProtectionDomain driver_;       // page table, IOVA allocator, DMA API (host domain)
  std::unique_ptr<RootComplex> rc_;
  std::unique_ptr<Nic> nic_;
  ReuseDistanceTracker l3_tracker_;

  std::vector<Core> cores_;
  std::uint64_t target_pages_per_ring_ = 0;
  std::uint32_t pages_per_packet_ = 1;

  std::unordered_map<std::uint64_t, std::unique_ptr<DctcpSender>> senders_;
  std::unordered_map<std::uint64_t, std::unique_ptr<DctcpReceiver>> receivers_;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_core_;
  // TSQ state: bytes each flow currently holds in the NIC Tx path.
  std::unordered_map<std::uint64_t, std::uint64_t> flow_nic_bytes_;

  // Capacity pools backing TakeBatchVec()/TakeMapVec().
  std::vector<std::vector<Packet>> batch_pool_;
  std::vector<std::vector<DmaMapping>> mapvec_pool_;

  WireOutFn wire_out_;
  TimeNs cpu_busy_ns_ = 0;
  Tracer* tracer_ = nullptr;
  TraceScope host_trace_;    // kHost: core-run spans
  TraceScope driver_trace_;  // kDriver: map spans (driver calls lack a clock)

  HostState state_ = HostState::kRunning;
  // Where in the crash-recovery ladder (src/faults/recovery_protocol.h) the
  // host currently is. Advanced strictly via NextRecoveryStep so the traced
  // sequence always matches the protocol the model checker verifies.
  RecoveryStep recovery_step_ = RecoveryStep::kIdle;
  SafetyOracle* oracle_ = nullptr;

  Counter* app_rx_bytes_;
  Counter* replenished_descs_;
  Counter* crashes_ = nullptr;           // lazy: crash-path only
  Counter* recoveries_ = nullptr;
  Counter* crash_rx_dropped_ = nullptr;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_HOST_HOST_H_

// Cluster: general N-host topology — the simulation's top layer.
//
// A Cluster builds `num_hosts` hosts, each with its own protection mode,
// attached to one or more switches. With a single switch every host gets a
// dedicated switch port (the paper's testbed, generalized to N hosts); with
// S > 1 switches host h attaches to leaf switch h % S and the leaves are
// joined by a full mesh of uplink ports, so cross-switch traffic pays one
// extra store-and-forward hop. Forwarding is destination-keyed on every
// switch (see NetworkSwitch::SetRoute).
//
// Every experiment runs on a Cluster: the paper's two-server testbed is the
// default config (2 hosts, 1 switch; `Testbed` in testbed.h), and N→1
// incast, multi-tenant IOMMU contention and large aggregate flow counts set
// more hosts. The applications in src/apps attach to any Cluster.
//
// Quickstart (8→1 incast):
//   ClusterConfig config;
//   config.num_hosts = 9;
//   config.mode = ProtectionMode::kFastSafe;
//   Cluster cluster(config);
//   StartIncast(&cluster, /*dst_host=*/0);          // src/apps/incast.h
//   cluster.RunUntil(20 * kNsPerMs);
//   std::vector<WindowResult> r = cluster.MeasureWindowAll(40 * kNsPerMs);
//
// Thread safety: a Cluster (and everything it owns — hosts, switches, the
// event queue, its StatsRegistry) is a single-threaded deterministic
// simulation instance. Parallel sweeps get their concurrency by building one
// Cluster per sweep point on the SweepRunner pool, never by sharing one
// instance across threads; the only process-global a Cluster touches is the
// mutex-serialized Logger (src/simcore/log.h).
#ifndef FASTSAFE_SRC_CORE_CLUSTER_H_
#define FASTSAFE_SRC_CORE_CLUSTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/protection.h"
#include "src/host/host.h"
#include "src/simcore/event_queue.h"
#include "src/transport/network_switch.h"

namespace fsio {

struct ClusterConfig {
  std::uint32_t num_hosts = 2;
  std::uint32_t num_switches = 1;  // hosts attach round-robin (host % switches)
  ProtectionMode mode = ProtectionMode::kStrict;  // default for every host
  // Per-host overrides of the default protection mode, keyed by host id.
  std::map<std::uint32_t, ProtectionMode> host_modes;
  std::uint32_t cores = 5;
  std::uint32_t mtu_bytes = 4096;  // wire MTU (headers included): one page
  std::uint32_t ring_size_pkts = 256;
  SwitchConfig network;
  HostConfig host;    // template: per-host fields are overwritten per host
  DctcpConfig dctcp;  // mss is derived from mtu_bytes
  // Host ids whose IOVA allocation locality is traced (Figs 2e/3e/7e/8e).
  std::vector<std::uint32_t> track_l3_locality_hosts;
};

// Per-window measurement of one host, matching the quantities in the paper's
// figures. Rx-centric rates are zero on hosts that receive no data.
struct WindowResult {
  double goodput_gbps = 0.0;        // application bytes delivered
  double drop_rate = 0.0;           // NIC drops / packets arriving at host
  double iotlb_miss_per_page = 0.0;
  double l1_miss_per_page = 0.0;    // hierarchical (see Iommu docs)
  double l2_miss_per_page = 0.0;
  double l3_miss_per_page = 0.0;
  double mem_reads_per_page = 0.0;  // = iotlb + l1 + l2 + l3 per page
  double tx_packets_per_page = 0.0; // ACK/Tx interference indicator
  double cpu_utilization = 0.0;     // busy fraction across the host's cores
  std::uint64_t pages_of_data = 0;
  std::uint64_t safety_violations = 0;  // stale IOTLB/PTcache uses observed
  std::map<std::string, std::uint64_t> raw_rx_host;  // counter deltas
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  EventQueue& ev() { return ev_; }
  Host& host(std::uint32_t id) { return *hosts_[id]; }
  std::uint32_t num_hosts() const { return static_cast<std::uint32_t>(hosts_.size()); }
  const ClusterConfig& config() const { return config_; }

  // Fabric topology access (cluster-scale fault injection).
  NetworkSwitch& network_switch(std::uint32_t id) { return *switches_[id]; }
  std::uint32_t num_switches() const { return static_cast<std::uint32_t>(switches_.size()); }
  std::uint32_t switch_of(std::uint32_t host_id) const { return SwitchOf(host_id); }

  // Cross-host safety harness: builds one SafetyOracle + InvariantRegistry
  // per host (registered on that host's StatsRegistry) and wires them into
  // every component via Host::EnableSafetyInstrumentation. The oracles check
  // the cluster-scale invariants — no DMA lands in a crashed host's
  // reclaimed frames, no stale translation survives recovery. Idempotent.
  void EnableFaultHarness();
  SafetyOracle* oracle(std::uint32_t host_id) {
    return host_id < oracles_.size() ? oracles_[host_id].get() : nullptr;
  }
  InvariantRegistry* invariants(std::uint32_t host_id) {
    return host_id < invariant_registries_.size() ? invariant_registries_[host_id].get()
                                                  : nullptr;
  }

  // Adds a single flow src_host:src_core -> dst_host:dst_core. Returns the
  // sender; `deliver` fires on the destination with in-order byte counts.
  DctcpSender* AddFlow(std::uint32_t src_host, std::uint32_t dst_host, std::uint32_t src_core,
                       std::uint32_t dst_core, DctcpReceiver::DeliverFn deliver = nullptr);

  // Adds one iperf-style unbounded flow per core: src_host core i -> dst_host
  // core i, for i in [0, n).
  void AddBulkFlows(std::uint32_t src_host, std::uint32_t dst_host, std::uint32_t n);

  // Runs the simulation to absolute time `until`.
  void RunUntil(TimeNs until);

  // Runs the simulation for `duration` and reports the window on `host_id`.
  WindowResult MeasureWindow(std::uint32_t host_id, TimeNs duration);

  // Same, but reports every host over the same window (index == host id).
  std::vector<WindowResult> MeasureWindowAll(TimeNs duration);

  // Fabric counters (forwarded / marked / dropped; with more than one switch
  // the counters are per-switch: "switch<i>.*").
  StatsRegistry& switch_stats() { return *switch_stats_; }

  // Scheduler health counters, refreshed by MeasureWindow/MeasureWindowAll:
  //   evq.allocations    — arena chunk + boxed-closure allocations to date;
  //                        constant across steady-state windows (the arena
  //                        recycles records, so a warmed-up run stops
  //                        allocating — cluster_test asserts this)
  //   evq.arena_capacity — event records currently owned by the arena
  //   evq.executed       — events executed over the queue's lifetime
  //   evq.pending        — events pending at the end of the last window
  // A dedicated registry (not switch_stats_ / host stats) so scheduler
  // internals never leak into golden CSV or time-series counter unions.
  StatsRegistry& evq_stats() { return evq_stats_; }

  // Observability: hands every host a per-host-scoped view of `tracer`
  // (trace pid == host id). Pass nullptr to detach.
  void SetTracer(Tracer* tracer) {
    for (auto& host : hosts_) {
      host->SetTracer(tracer);
    }
  }

 private:
  std::uint32_t SwitchOf(std::uint32_t host_id) const {
    return host_id % config_.num_switches;
  }
  void BuildFabric();
  void WireHosts();
  void UpdateEvqStats();
  // A host's counters and CPU time when a measurement window opens.
  struct WindowStart {
    std::map<std::string, std::uint64_t> counters;
    TimeNs cpu_busy_ns = 0;
  };
  // Runs the simulation for `duration` and reports hosts [first, last).
  std::vector<WindowResult> MeasureHosts(std::uint32_t first, std::uint32_t last,
                                         TimeNs duration);
  WindowResult ComputeResult(std::uint32_t host_id, const WindowStart& start, TimeNs window_ns);

  ClusterConfig config_;
  EventQueue ev_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<NetworkSwitch>> switches_;
  std::unique_ptr<StatsRegistry> switch_stats_;
  StatsRegistry evq_stats_;
  std::vector<std::unique_ptr<SafetyOracle>> oracles_;
  std::vector<std::unique_ptr<InvariantRegistry>> invariant_registries_;
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CORE_CLUSTER_H_

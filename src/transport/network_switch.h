// Output-queued multi-port switch with DCTCP-style ECN marking.
//
// Each output port is an independent serialization resource with its own
// queue; queueing delay above the ECN threshold marks CE on the packet (what
// DCTCP senders react to), and a deep queue tail-drops. Forwarding is
// destination-keyed: the fabric (Cluster) installs a route per destination
// host, which may point at a host-facing port or at an uplink port toward
// another switch. In the paper's two-host testbed the switch is never the
// bottleneck — drops happen at the receiving host — so the default capacity
// is generous.
#ifndef FASTSAFE_SRC_TRANSPORT_NETWORK_SWITCH_H_
#define FASTSAFE_SRC_TRANSPORT_NETWORK_SWITCH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"
#include "src/transport/packet.h"

namespace fsio {

struct SwitchConfig {
  double port_gbps = 100.0;
  TimeNs prop_delay_ns = 1 * kNsPerUs;          // per hop, each direction
  std::uint64_t ecn_threshold_bytes = 512 * 1024;  // DCTCP K
  std::uint64_t queue_capacity_bytes = 16ull << 20;
  bool operator==(const SwitchConfig&) const = default;
};

class NetworkSwitch {
 public:
  // Creates a switch with `num_ports` initial ports. Counters are registered
  // under `<stats_prefix>.forwarded` / `.marked` / `.dropped`; the default
  // prefix keeps the historical two-host counter names.
  NetworkSwitch(const SwitchConfig& config, std::uint32_t num_ports, StatsRegistry* stats,
                const std::string& stats_prefix = "switch");

  // Adds one output port (host-facing or uplink) and returns its index.
  std::uint32_t AddPort();
  std::uint32_t num_ports() const { return static_cast<std::uint32_t>(port_busy_until_.size()); }

  // Installs destination-keyed routing: packets for `dst_host` egress through
  // `port`. Destinations without a route fall back to dst_host % num_ports
  // (the historical two-host behaviour).
  void SetRoute(std::uint32_t dst_host, std::uint32_t port);
  std::uint32_t PortFor(std::uint32_t dst_host) const;

  // Forwards `packet` (arriving at the switch at time `now`) out of the port
  // routed for packet->dst_host. Returns the arrival time at the far end of
  // that port's link (a NIC or the next switch), or nullopt if the packet
  // was tail-dropped, the egress port/switch is down, or an injected fabric
  // fault (corruption, loss burst) consumed it. May set packet->ce.
  std::optional<TimeNs> Forward(Packet* packet, TimeNs now);

  // Cluster-scale fault domains. Port- and switch-down state is driven by
  // the ClusterFaultController (link flaps, whole-switch failure); the fault
  // injector adds probabilistic per-packet corruption / loss-burst drops
  // (FaultKind::kPacketCorruption / kPacketLossBurst, target_core = egress
  // port). Fault-drop counters are registered lazily under
  // `<stats_prefix>.link_down_drops` / `.switch_down_drops` /
  // `.corrupted_drops` / `.loss_burst_drops` on first use, so fault-free
  // runs publish exactly the historical counter set.
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }
  void SetPortDown(std::uint32_t port, bool down);
  void SetSwitchDown(bool down) { switch_down_ = down; }
  bool switch_down() const { return switch_down_; }
  bool port_down(std::uint32_t port) const {
    return port < port_down_.size() && port_down_[port] != 0;
  }

 private:
  SwitchConfig config_;
  double bytes_per_ns_;
  std::vector<TimeNs> port_busy_until_;
  std::unordered_map<std::uint32_t, std::uint32_t> routes_;
  StatsRegistry* stats_;
  std::string stats_prefix_;
  std::vector<std::uint8_t> port_down_;  // parallel to port_busy_until_
  bool switch_down_ = false;
  FaultInjector* fault_injector_ = nullptr;
  Counter* forwarded_;
  Counter* marked_;
  Counter* dropped_;
  Counter* link_down_drops_ = nullptr;
  Counter* switch_down_drops_ = nullptr;
  Counter* corrupted_drops_ = nullptr;
  Counter* loss_burst_drops_ = nullptr;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_TRANSPORT_NETWORK_SWITCH_H_

#include "src/transport/network_switch.h"

namespace fsio {

NetworkSwitch::NetworkSwitch(const SwitchConfig& config, std::uint32_t num_ports,
                             StatsRegistry* stats, const std::string& stats_prefix)
    : config_(config),
      bytes_per_ns_(GbpsToBytesPerNs(config.port_gbps)),
      port_busy_until_(num_ports, 0),
      stats_(stats),
      stats_prefix_(stats_prefix),
      port_down_(num_ports, 0),
      forwarded_(stats->Get(stats_prefix + ".forwarded")),
      marked_(stats->Get(stats_prefix + ".marked")),
      dropped_(stats->Get(stats_prefix + ".dropped")) {}

std::uint32_t NetworkSwitch::AddPort() {
  port_busy_until_.push_back(0);
  port_down_.push_back(0);
  return static_cast<std::uint32_t>(port_busy_until_.size() - 1);
}

void NetworkSwitch::SetPortDown(std::uint32_t port, bool down) {
  if (port < port_down_.size()) {
    port_down_[port] = down ? 1 : 0;
  }
}

void NetworkSwitch::SetRoute(std::uint32_t dst_host, std::uint32_t port) {
  routes_[dst_host] = port;
}

std::uint32_t NetworkSwitch::PortFor(std::uint32_t dst_host) const {
  const auto it = routes_.find(dst_host);
  if (it != routes_.end()) {
    return it->second;
  }
  return dst_host % num_ports();
}

std::optional<TimeNs> NetworkSwitch::Forward(Packet* packet, TimeNs now) {
  const std::uint32_t port = PortFor(packet->dst_host);
  // Fault-domain drops come before queueing: a dead switch or link never
  // accepts the packet, and a fabric-corrupted packet fails the receiver's
  // CRC (modeled as a drop at the egress port, where the bits went bad).
  if (switch_down_) {
    LazyCounter(stats_, &switch_down_drops_, ".switch_down_drops", stats_prefix_)->Add();
    return std::nullopt;
  }
  if (port < port_down_.size() && port_down_[port] != 0) {
    LazyCounter(stats_, &link_down_drops_, ".link_down_drops", stats_prefix_)->Add();
    return std::nullopt;
  }
  if (fault_injector_ != nullptr) {
    if (fault_injector_->Sample(FaultKind::kPacketCorruption, now,
                                static_cast<std::int32_t>(port)).fire) {
      LazyCounter(stats_, &corrupted_drops_, ".corrupted_drops", stats_prefix_)->Add();
      return std::nullopt;
    }
    if (fault_injector_->Sample(FaultKind::kPacketLossBurst, now,
                                static_cast<std::int32_t>(port)).fire) {
      LazyCounter(stats_, &loss_burst_drops_, ".loss_burst_drops", stats_prefix_)->Add();
      return std::nullopt;
    }
  }
  TimeNs& busy = port_busy_until_[port];
  // Bytes queued ahead of this packet, inferred from the port backlog.
  const std::uint64_t backlog_bytes =
      busy > now ? static_cast<std::uint64_t>(static_cast<double>(busy - now) * bytes_per_ns_)
                 : 0;
  if (backlog_bytes + packet->wire_size() > config_.queue_capacity_bytes) {
    dropped_->Add();
    return std::nullopt;
  }
  if (backlog_bytes > config_.ecn_threshold_bytes) {
    packet->ce = true;
    marked_->Add();
  }
  const TimeNs start = busy > now ? busy : now;
  busy = start + SerializationDelayNs(packet->wire_size(), config_.port_gbps);
  forwarded_->Add();
  return busy + config_.prop_delay_ns;
}

}  // namespace fsio

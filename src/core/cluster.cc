#include "src/core/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace fsio {
namespace {

// Cluster sets these fields per host (and the MSS from the MTU), so a value
// a caller put there would be replaced without a word: reject it instead.
void RejectDerivedFields(const ClusterConfig& config) {
  const auto reject_if = [](bool set, const std::string& field, const std::string& instead) {
    if (set) {
      throw std::invalid_argument("ClusterConfig::" + field +
                                  " is derived per host; set ClusterConfig::" + instead +
                                  " instead");
    }
  };
  const HostConfig defaults;
  const HostConfig& host = config.host;
  reject_if(host.host_id != defaults.host_id, "host.host_id", "num_hosts");
  reject_if(host.cores != defaults.cores, "host.cores", "cores");
  reject_if(host.mode != defaults.mode, "host.mode", "mode or host_modes");
  reject_if(host.mtu_bytes != defaults.mtu_bytes, "host.mtu_bytes", "mtu_bytes");
  reject_if(host.ring_size_pkts != defaults.ring_size_pkts, "host.ring_size_pkts",
            "ring_size_pkts");
  reject_if(host.track_l3_locality != defaults.track_l3_locality, "host.track_l3_locality",
            "track_l3_locality_hosts");
  // A config read back from Cluster::config() carries the derived MSS.
  const std::uint32_t mss = config.dctcp.mss_bytes;
  reject_if(mss != DctcpConfig{}.mss_bytes && mss != config.mtu_bytes - kHeaderBytes,
            "dctcp.mss_bytes", "mtu_bytes");
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  RejectDerivedFields(config_);
  if (config_.num_hosts < 2) {
    config_.num_hosts = 2;
  }
  if (config_.num_switches < 1) {
    config_.num_switches = 1;
  }
  if (config_.num_switches > config_.num_hosts) {
    config_.num_switches = config_.num_hosts;
  }
  config_.dctcp.mss_bytes = config_.mtu_bytes - kHeaderBytes;

  BuildFabric();
  for (std::uint32_t id = 0; id < config_.num_hosts; ++id) {
    HostConfig host_config = config_.host;
    host_config.host_id = id;
    host_config.cores = config_.cores;
    host_config.mode = config_.mode;
    const auto it = config_.host_modes.find(id);
    if (it != config_.host_modes.end()) {
      host_config.mode = it->second;
    }
    host_config.mtu_bytes = config_.mtu_bytes;
    host_config.ring_size_pkts = config_.ring_size_pkts;
    host_config.track_l3_locality =
        std::find(config_.track_l3_locality_hosts.begin(), config_.track_l3_locality_hosts.end(),
                  id) != config_.track_l3_locality_hosts.end();
    hosts_.push_back(std::make_unique<Host>(host_config, &ev_));
  }
  WireHosts();
  // Pre-size the event arena for the expected steady-state event population
  // (per-core NAPI batches, per-packet DMA commits, transport timers), so
  // warm-up does not grow it chunk by chunk.
  ev_.Reserve(static_cast<std::size_t>(config_.num_hosts) * config_.cores * 64);
}

void Cluster::BuildFabric() {
  switch_stats_ = std::make_unique<StatsRegistry>();
  const std::uint32_t num_switches = config_.num_switches;
  for (std::uint32_t s = 0; s < num_switches; ++s) {
    const std::string prefix =
        num_switches == 1 ? "switch" : "switch" + std::to_string(s);
    switches_.push_back(std::make_unique<NetworkSwitch>(config_.network, /*num_ports=*/0,
                                                        switch_stats_.get(), prefix));
  }
  // Host-facing ports, one per attached host.
  for (std::uint32_t h = 0; h < config_.num_hosts; ++h) {
    NetworkSwitch* sw = switches_[SwitchOf(h)].get();
    sw->SetRoute(h, sw->AddPort());
  }
  if (num_switches == 1) {
    return;
  }
  // Full mesh of uplink ports between leaves; remote hosts route through the
  // uplink toward their leaf switch.
  std::vector<std::vector<std::uint32_t>> uplink(
      num_switches, std::vector<std::uint32_t>(num_switches, 0));
  for (std::uint32_t s = 0; s < num_switches; ++s) {
    for (std::uint32_t t = 0; t < num_switches; ++t) {
      if (s != t) {
        uplink[s][t] = switches_[s]->AddPort();
      }
    }
  }
  for (std::uint32_t s = 0; s < num_switches; ++s) {
    for (std::uint32_t h = 0; h < config_.num_hosts; ++h) {
      if (SwitchOf(h) != s) {
        switches_[s]->SetRoute(h, uplink[s][SwitchOf(h)]);
      }
    }
  }
}

void Cluster::WireHosts() {
  for (auto& host : hosts_) {
    const std::uint32_t src_switch = SwitchOf(host->config().host_id);
    host->SetWireOut([this, src_switch](const Packet& packet, TimeNs departure) {
      ev_.ScheduleAt(departure, [this, src_switch, packet] {
        Packet p = packet;
        const auto hop = switches_[src_switch]->Forward(&p, ev_.now());
        if (!hop.has_value()) {
          return;  // switch tail drop
        }
        const std::uint32_t dst_switch = SwitchOf(p.dst_host);
        if (dst_switch == src_switch) {
          ev_.ScheduleAt(*hop, [this, p] { hosts_[p.dst_host]->DeliverFromWire(p); });
          return;
        }
        // Cross-switch: one extra store-and-forward hop at the leaf owning
        // the destination host.
        ev_.ScheduleAt(*hop, [this, dst_switch, p]() mutable {
          const auto delivery = switches_[dst_switch]->Forward(&p, ev_.now());
          if (!delivery.has_value()) {
            return;
          }
          ev_.ScheduleAt(*delivery, [this, p] { hosts_[p.dst_host]->DeliverFromWire(p); });
        });
      });
    });
  }
}

DctcpSender* Cluster::AddFlow(std::uint32_t src_host, std::uint32_t dst_host,
                              std::uint32_t src_core, std::uint32_t dst_core,
                              DctcpReceiver::DeliverFn deliver) {
  const std::uint64_t flow_id = next_flow_id_++;
  DctcpSender* sender =
      hosts_[src_host]->AddSender(flow_id, src_core, dst_host, dst_core, config_.dctcp);
  // The receiver's ACKs are routed back to (src_host, src_core).
  hosts_[dst_host]->AddReceiver(flow_id, dst_core, src_host, src_core, config_.dctcp,
                                std::move(deliver));
  return sender;
}

void Cluster::AddBulkFlows(std::uint32_t src_host, std::uint32_t dst_host, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t core = i % config_.cores;
    DctcpSender* sender = AddFlow(src_host, dst_host, core, core);
    sender->EnqueueAppBytes(1ULL << 62);  // effectively unbounded
  }
}

void Cluster::EnableFaultHarness() {
  if (!oracles_.empty()) {
    return;
  }
  oracles_.reserve(hosts_.size());
  invariant_registries_.reserve(hosts_.size());
  for (auto& host : hosts_) {
    oracles_.push_back(std::make_unique<SafetyOracle>(&host->stats()));
    invariant_registries_.push_back(std::make_unique<InvariantRegistry>(&host->stats()));
    host->EnableSafetyInstrumentation(oracles_.back().get(), invariant_registries_.back().get(),
                                      /*injector=*/nullptr);
  }
}

void Cluster::RunUntil(TimeNs until) { ev_.RunUntil(until); }

WindowResult Cluster::ComputeResult(std::uint32_t host_id, const WindowStart& start,
                                    TimeNs window_ns) {
  Host& host = *hosts_[host_id];
  const auto delta = StatsRegistry::Delta(start.counters, host.stats().Snapshot());
  auto value = [&delta](const std::string& name) -> std::uint64_t {
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
  };

  WindowResult out;
  const std::uint64_t app_bytes = value("host.app_rx_bytes");
  out.goodput_gbps = static_cast<double>(app_bytes) * 8.0 / static_cast<double>(window_ns);
  const std::uint64_t rx_bytes = value("nic.rx_wire_bytes");
  out.pages_of_data = rx_bytes / kPageSize;
  const double pages = out.pages_of_data > 0 ? static_cast<double>(out.pages_of_data) : 1.0;
  out.iotlb_miss_per_page = static_cast<double>(value("iommu.iotlb_miss")) / pages;
  out.l1_miss_per_page = static_cast<double>(value("iommu.ptcache_l1_miss")) / pages;
  out.l2_miss_per_page = static_cast<double>(value("iommu.ptcache_l2_miss")) / pages;
  out.l3_miss_per_page = static_cast<double>(value("iommu.ptcache_l3_miss")) / pages;
  out.mem_reads_per_page = static_cast<double>(value("iommu.mem_reads")) / pages;
  out.tx_packets_per_page = static_cast<double>(value("nic.tx_packets")) / pages;
  const std::uint64_t drops = value("nic.drops_buffer") + value("nic.drops_nodesc");
  const std::uint64_t arrived = value("nic.rx_packets") + drops;
  out.drop_rate = arrived > 0 ? static_cast<double>(drops) / static_cast<double>(arrived) : 0.0;
  const TimeNs busy = host.total_cpu_busy_ns() - start.cpu_busy_ns;
  out.cpu_utilization = static_cast<double>(busy) /
                        (static_cast<double>(window_ns) * config_.cores);
  out.safety_violations = value("iommu.stale_iotlb_use") + value("iommu.stale_ptcache_use");
  out.raw_rx_host = delta;
  return out;
}

void Cluster::UpdateEvqStats() {
  const auto set = [this](const char* name, std::uint64_t v) {
    Counter* c = evq_stats_.Get(name);
    c->Reset();
    c->Add(v);
  };
  set("evq.allocations", ev_.allocations());
  set("evq.arena_capacity", static_cast<std::uint64_t>(ev_.arena_capacity()));
  set("evq.executed", ev_.executed());
  set("evq.pending", static_cast<std::uint64_t>(ev_.pending()));
}

WindowResult Cluster::MeasureWindow(std::uint32_t host_id, TimeNs duration) {
  return MeasureHosts(host_id, host_id + 1, duration).front();
}

std::vector<WindowResult> Cluster::MeasureWindowAll(TimeNs duration) {
  return MeasureHosts(0, num_hosts(), duration);
}

std::vector<WindowResult> Cluster::MeasureHosts(std::uint32_t first, std::uint32_t last,
                                                TimeNs duration) {
  std::vector<WindowStart> starts;
  starts.reserve(last - first);
  for (std::uint32_t id = first; id < last; ++id) {
    starts.push_back({hosts_[id]->stats().Snapshot(), hosts_[id]->total_cpu_busy_ns()});
  }
  ev_.RunUntil(ev_.now() + duration);
  UpdateEvqStats();
  std::vector<WindowResult> results;
  results.reserve(starts.size());
  for (std::uint32_t id = first; id < last; ++id) {
    results.push_back(ComputeResult(id, starts[id - first], duration));
  }
  return results;
}

}  // namespace fsio

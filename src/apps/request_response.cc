#include "src/apps/request_response.h"

namespace fsio {

RequestResponseApp::RequestResponseApp(Cluster* cluster, const RequestResponseConfig& config)
    : cluster_(cluster), config_(config) {
  request_sender_ = cluster_->AddFlow(
      config_.client_host, config_.server_host, config_.client_core, config_.server_core,
      [this](std::uint64_t bytes) { OnServerDelivery(bytes); });
  response_sender_ = cluster_->AddFlow(
      config_.server_host, config_.client_host, config_.server_core, config_.client_core,
      [this](std::uint64_t bytes) { OnClientDelivery(bytes); });
}

void RequestResponseApp::Start() {
  for (std::uint32_t i = 0; i < config_.pipeline; ++i) {
    IssueRequest();
  }
}

void RequestResponseApp::IssueRequest() {
  issue_times_.push_back(cluster_->ev().now());
  request_sender_->EnqueueAppBytes(config_.request_bytes);
}

void RequestResponseApp::OnServerDelivery(std::uint64_t bytes) {
  server_rx_bytes_ += bytes;
  server_rx_pending_ += bytes;
  while (server_rx_pending_ >= config_.request_bytes) {
    server_rx_pending_ -= config_.request_bytes;
    SendResponse();
  }
}

void RequestResponseApp::SendResponse() {
  // Application processing on the server core, then the response enters the
  // server's Tx datapath.
  const TimeNs think =
      config_.server_cpu_per_request_ns +
      static_cast<TimeNs>(static_cast<double>(config_.response_bytes) *
                          config_.server_cpu_per_byte_ns);
  Host& server = cluster_->host(config_.server_host);
  server.ChargeCpu(config_.server_core, think);
  cluster_->ev().ScheduleAfter(think, [this] {
    response_sender_->EnqueueAppBytes(config_.response_bytes);
  });
}

void RequestResponseApp::OnClientDelivery(std::uint64_t bytes) {
  client_rx_bytes_ += bytes;
  client_rx_pending_ += bytes;
  while (client_rx_pending_ >= config_.response_bytes) {
    client_rx_pending_ -= config_.response_bytes;
    ++completed_;
    if (!issue_times_.empty()) {
      const TimeNs issued = issue_times_.front();
      issue_times_.pop_front();
      latency_.Record(cluster_->ev().now() - issued);
    }
    Host& client = cluster_->host(config_.client_host);
    client.ChargeCpu(config_.client_core, config_.client_cpu_per_response_ns);
    IssueRequest();  // closed loop
  }
}

std::vector<std::unique_ptr<RequestResponseApp>> MakeApps(Cluster* cluster,
                                                          RequestResponseConfig config,
                                                          std::uint32_t n,
                                                          std::uint32_t cores) {
  std::vector<std::unique_ptr<RequestResponseApp>> apps;
  apps.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    config.client_core = i % cores;
    config.server_core = i % cores;
    apps.push_back(std::make_unique<RequestResponseApp>(cluster, config));
  }
  return apps;
}

}  // namespace fsio

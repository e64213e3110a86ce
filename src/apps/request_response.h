// Generic closed-loop request/response application over a Cluster.
//
// One client endpoint issues fixed-size requests with a bounded number in
// flight (pipelining); one server endpoint consumes requests, spends
// configurable CPU time, and returns fixed-size responses. Request/response
// boundaries are byte-counted on the in-order stream, so the app composes
// with the transport exactly like a real length-prefixed RPC protocol.
//
// The paper's application workloads are all instances of this shape:
//   netperf RPC  : request == response == S, pipeline 1..k   (Fig. 9)
//   Redis SET    : large request (value), tiny reply, pipeline 32 (Fig. 11a)
//   Nginx GET    : tiny request, page-sized response          (Fig. 11b)
//   SPDK read    : tiny request, block-sized response, IO depth 8 (Fig. 11c)
// See redis.h / nginx.h / spdk.h / rpc.h for the configured factories.
#ifndef FASTSAFE_SRC_APPS_REQUEST_RESPONSE_H_
#define FASTSAFE_SRC_APPS_REQUEST_RESPONSE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/core/cluster.h"
#include "src/stats/histogram.h"

namespace fsio {

struct RequestResponseConfig {
  std::uint64_t request_bytes = 64;
  std::uint64_t response_bytes = 4096;
  std::uint32_t pipeline = 1;  // requests concurrently in flight

  // Application CPU costs, charged to the owning core.
  TimeNs server_cpu_per_request_ns = 1000;
  double server_cpu_per_byte_ns = 0.0;  // per response byte (nginx-style)
  TimeNs client_cpu_per_response_ns = 300;

  std::uint32_t client_host = 0;
  std::uint32_t server_host = 1;
  std::uint32_t client_core = 0;
  std::uint32_t server_core = 0;
};

class RequestResponseApp {
 public:
  RequestResponseApp(Cluster* cluster, const RequestResponseConfig& config);

  // Issues the initial pipeline of requests. Call before running the sim.
  void Start();

  // Completed request/response round trips.
  std::uint64_t completed() const { return completed_; }

  // Request payload bytes delivered to the server (Redis-style throughput).
  std::uint64_t request_bytes_delivered() const { return server_rx_bytes_; }

  // Response payload bytes delivered back to the client (nginx/SPDK-style).
  std::uint64_t response_bytes_delivered() const { return client_rx_bytes_; }

  // End-to-end latency (request issue to response fully received), ns.
  const Histogram& latency() const { return latency_; }
  Histogram& mutable_latency() { return latency_; }

 private:
  void IssueRequest();
  void OnServerDelivery(std::uint64_t bytes);
  void OnClientDelivery(std::uint64_t bytes);
  void SendResponse();

  Cluster* cluster_;
  RequestResponseConfig config_;
  DctcpSender* request_sender_ = nullptr;   // client -> server
  DctcpSender* response_sender_ = nullptr;  // server -> client

  std::uint64_t server_rx_bytes_ = 0;
  std::uint64_t server_rx_pending_ = 0;  // bytes toward the next request
  std::uint64_t client_rx_bytes_ = 0;
  std::uint64_t client_rx_pending_ = 0;  // bytes toward the next response
  std::deque<TimeNs> issue_times_;
  std::uint64_t completed_ = 0;
  Histogram latency_;
};

// Convenience: create `n` identical app instances spread round-robin over
// `cores` cores on both ends.
std::vector<std::unique_ptr<RequestResponseApp>> MakeApps(Cluster* cluster,
                                                          RequestResponseConfig config,
                                                          std::uint32_t n,
                                                          std::uint32_t cores);

}  // namespace fsio

#endif  // FASTSAFE_SRC_APPS_REQUEST_RESPONSE_H_

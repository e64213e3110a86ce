// iperf-style bulk throughput workload (paper §2.2 / §4.1 microbenchmarks).
//
// Forward bulk flows (host 0 -> host 1) are Cluster::AddBulkFlows; this
// header adds the reverse direction for Rx/Tx interference experiments.
#ifndef FASTSAFE_SRC_APPS_IPERF_H_
#define FASTSAFE_SRC_APPS_IPERF_H_

#include <cstdint>

#include "src/core/cluster.h"

namespace fsio {

// Reverse-direction bulk flows (host 1 -> host 0) for Rx/Tx interference
// experiments (paper Fig. 10).
inline void StartReverseIperf(Cluster* cluster, std::uint32_t flows, std::uint32_t cores,
                              std::uint32_t core_offset = 0) {
  for (std::uint32_t i = 0; i < flows; ++i) {
    const std::uint32_t core = (core_offset + i) % cores;
    DctcpSender* sender = cluster->AddFlow(1, 0, core, core);
    sender->EnqueueAppBytes(1ULL << 62);
  }
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_APPS_IPERF_H_

// Testbed: the paper's two-server setup, a Cluster under its historical name.
//
// A Testbed is the two-server setup the paper evaluates on: two hosts with
// 100 Gbps NICs connected through one switch, with a chosen memory-protection
// mode on each host. It is a Cluster built from the default ClusterConfig
// (two hosts, one switch); it adds names for the sender and receiver hosts
// and RunWindow(), which reports the receive-side host 1 the way the
// paper's figures plot it. The name stays because perfbench/ builds the
// benchmark's simulation through it.
//
// Quickstart:
//   TestbedConfig config;
//   config.mode = ProtectionMode::kFastSafe;
//   Testbed tb(config);
//   tb.AddBulkFlows(0, 1, 5);                 // one iperf flow per core
//   WindowResult r = tb.RunWindow(5*kNsPerMs, 20*kNsPerMs);
//   std::cout << r.goodput_gbps << "\n";
#ifndef FASTSAFE_SRC_CORE_TESTBED_H_
#define FASTSAFE_SRC_CORE_TESTBED_H_

#include "src/core/cluster.h"

namespace fsio {

using TestbedConfig = ClusterConfig;

class Testbed : public Cluster {
 public:
  using Cluster::Cluster;

  Cluster& cluster() { return *this; }
  Host& sender_host() { return host(0); }
  Host& receiver_host() { return host(1); }

  // Runs `warmup` then measures for `duration` on the receive-side host.
  WindowResult RunWindow(TimeNs warmup, TimeNs duration) {
    RunUntil(ev().now() + warmup);
    return MeasureWindow(1, duration);
  }
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CORE_TESTBED_H_

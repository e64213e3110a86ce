// Tail-latency scenario: a latency-sensitive RPC application colocated with
// throughput-bound iperf flows (the paper's Figure 9 setup), showing the
// orders-of-magnitude tail inflation strict-mode protection causes and F&S
// eliminating it.
//
//   ./build/examples/tail_latency [rpc_bytes]
#include <cstdlib>
#include <iostream>

#include "src/apps/rpc.h"
#include "src/core/testbed.h"
#include "src/stats/table.h"

int main(int argc, char** argv) {
  const std::uint64_t rpc_bytes = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4096;

  fsio::Table table({"mode", "rpcs", "p50_us", "p90_us", "p99_us", "p99.9_us"});

  for (fsio::ProtectionMode mode :
       {fsio::ProtectionMode::kOff, fsio::ProtectionMode::kStrict,
        fsio::ProtectionMode::kFastSafe}) {
    fsio::TestbedConfig config;
    config.mode = mode;
    config.cores = 6;  // 5 iperf cores + 1 dedicated RPC core

    fsio::Testbed testbed(config);
    testbed.AddBulkFlows(0, 1, /*flows=*/5);  // cores 0..4 (and 5 wraps)

    // The RPC application runs on its own core (5) on both hosts.
    std::vector<std::unique_ptr<fsio::RequestResponseApp>> rpcs;
    for (int i = 0; i < 4; ++i) {
      rpcs.push_back(std::make_unique<fsio::RequestResponseApp>(
          &testbed, fsio::NetperfRpcConfig(rpc_bytes, /*rpc_core=*/5)));
    }
    for (auto& rpc : rpcs) {
      rpc->Start();
    }

    testbed.RunUntil(15 * fsio::kNsPerMs);
    for (auto& rpc : rpcs) {
      rpc->mutable_latency().Reset();  // discard warmup samples
    }
    testbed.RunUntil(testbed.ev().now() + 60 * fsio::kNsPerMs);

    fsio::Histogram merged;
    for (auto& rpc : rpcs) {
      merged.Merge(rpc->latency());
    }
    table.BeginRow();
    table.AddCell(fsio::ProtectionModeName(mode));
    table.AddInteger(static_cast<long long>(merged.count()));
    table.AddNumber(static_cast<double>(merged.Percentile(50)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged.Percentile(90)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged.Percentile(99)) / 1000.0, 1);
    table.AddNumber(static_cast<double>(merged.Percentile(99.9)) / 1000.0, 1);
  }

  std::cout << "netperf-style RPC (" << rpc_bytes
            << " B) colocated with 5 iperf flows, RPC on its own core:\n\n";
  table.Print(std::cout);
  return 0;
}

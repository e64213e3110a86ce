// Shared helpers for the figure-reproduction benches.
//
// Every fig*_ binary regenerates one of the paper's figures: it sweeps the
// figure's x-axis, runs the testbed for a warmup + measurement window, and
// prints the same series the paper plots (plus a CSV block for plotting).
//
// Sweep points are independent deterministic simulations, so they run on the
// shared SweepRunner thread pool (src/core/sweep_runner.h): build the point
// list, ParallelSweep() the runs, then emit rows serially in point order —
// output is byte-identical to a serial sweep. FSIO_SWEEP_THREADS=1 forces
// serial execution; FSIO_BENCH_SMOKE=1 shrinks every sweep axis to its first
// value and the measurement windows to a CI-budget-friendly size.
#ifndef FASTSAFE_BENCH_FIGURE_COMMON_H_
#define FASTSAFE_BENCH_FIGURE_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <string>
#include <vector>

#include "src/apps/iperf.h"
#include "src/apps/request_response.h"
#include "src/core/sweep_runner.h"
#include "src/core/testbed.h"
#include "src/stats/table.h"

namespace fsio {
namespace bench {

// CI smoke mode: one tiny sweep point per axis, short windows.
inline bool SmokeMode() { return std::getenv("FSIO_BENCH_SMOKE") != nullptr; }

inline constexpr TimeNs kWarmupNs = 20 * kNsPerMs;
inline constexpr TimeNs kWindowNs = 40 * kNsPerMs;

inline TimeNs WarmupNs() { return SmokeMode() ? 2 * kNsPerMs : kWarmupNs; }
inline TimeNs WindowNs() { return SmokeMode() ? 3 * kNsPerMs : kWindowNs; }

// Sweep-axis values; truncated to the first value in smoke mode.
template <typename T>
inline std::vector<T> Sweep(std::initializer_list<T> values) {
  if (SmokeMode() && values.size() > 1) {
    return {*values.begin()};
  }
  return values;
}

// Appends the kernel-bypass capability mode to a figure's mode axis in full
// runs only. The CI smoke/golden baselines keep their original row set (the
// capability design has its own golden, bench/ext_capability), while every
// full figure run compares it head-to-head against the figure's IOMMU modes.
inline std::vector<ProtectionMode> WithCapability(std::vector<ProtectionMode> modes) {
  if (!SmokeMode()) {
    modes.push_back(ProtectionMode::kCapability);
  }
  return modes;
}

// Runs fn(i) for every sweep point on the shared thread pool and returns the
// results in point order. Result must be default-constructible.
template <typename Result, typename Fn>
inline std::vector<Result> ParallelSweep(std::size_t n, Fn&& fn) {
  return SweepRunner().Map<Result>(n, std::forward<Fn>(fn));
}

// One emission path for every bench: aligned table plus CSV block.
// FSIO_BENCH_CSV_ONLY=1 drops the human table — the golden-baseline
// comparator records bench output in this form so baseline diffs read as
// CSV diffs rather than column-alignment noise.
inline void EmitFigure(const std::string& title, const Table& table) {
  const bool csv_only = std::getenv("FSIO_BENCH_CSV_ONLY") != nullptr;
  EmitTable(std::cout, table, csv_only ? TableFormat::kCsv : TableFormat::kHumanWithCsv, title);
}

// Locality summary of the Rx host's IOVA allocation trace (Figs 2e/3e/7e/8e).
struct LocalitySummary {
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  double miss_fraction_64 = 0.0;
  double miss_fraction_128 = 0.0;
};

inline LocalitySummary SummarizeLocality(const ReuseDistanceTracker& tracker) {
  LocalitySummary out;
  std::vector<std::uint64_t> d = tracker.distances();
  if (d.empty()) {
    return out;
  }
  std::sort(d.begin(), d.end());
  out.p50 = d[d.size() / 2];
  out.p90 = d[d.size() * 9 / 10];
  out.p99 = d[d.size() * 99 / 100];
  out.miss_fraction_64 = tracker.MissFraction(64);
  out.miss_fraction_128 = tracker.MissFraction(128);
  return out;
}

// Runs an iperf workload and reports the receive-side window metrics.
struct IperfRun {
  WindowResult window;
  LocalitySummary locality;
};

inline IperfRun RunIperf(TestbedConfig config, std::uint32_t flows,
                         TimeNs warmup = 0, TimeNs window = 0) {
  if (warmup == 0) {
    warmup = WarmupNs();
  }
  if (window == 0) {
    window = WindowNs();
  }
  config.track_l3_locality = true;
  Testbed testbed(config);
  StartIperf(&testbed, flows);
  IperfRun run;
  run.window = testbed.RunWindow(warmup, window);
  run.locality = SummarizeLocality(testbed.receiver_host().l3_tracker());
  return run;
}

inline void AddIperfRow(Table* table, const std::string& mode, const std::string& x,
                        const IperfRun& run) {
  table->BeginRow();
  table->AddCell(mode);
  table->AddCell(x);
  table->AddNumber(run.window.goodput_gbps, 1);
  table->AddNumber(run.window.drop_rate * 100.0, 2);
  table->AddNumber(run.window.iotlb_miss_per_page, 2);
  table->AddNumber(run.window.l1_miss_per_page, 3);
  table->AddNumber(run.window.l2_miss_per_page, 3);
  table->AddNumber(run.window.l3_miss_per_page, 3);
  table->AddNumber(run.window.mem_reads_per_page, 2);
  table->AddNumber(run.window.tx_packets_per_page, 2);
  table->AddInteger(static_cast<long long>(run.locality.p50));
  table->AddInteger(static_cast<long long>(run.locality.p99));
}

inline std::vector<std::string> IperfHeaders(const std::string& x_name) {
  return {"mode",        x_name,       "gbps",        "drop_%",     "iotlb/pg", "l1/pg",
          "l2/pg",       "l3/pg",      "reads/pg",    "tx_pkt/pg",  "loc_p50",  "loc_p99"};
}

// Runs a request/response application point (Redis/Nginx/SPDK/ablation) and
// reports application throughput plus the receive-window metrics.
struct AppsRun {
  double request_gbps = 0.0;   // request payload bytes delivered to the server
  double response_gbps = 0.0;  // response payload bytes delivered to clients
  double ops_per_s = 0.0;      // completed request/response round trips
  WindowResult window;         // measured on the server/measured host (host 1)
};

inline AppsRun RunApps(const TestbedConfig& config, const RequestResponseConfig& app_config,
                       std::uint32_t n) {
  Testbed testbed(config);
  auto apps = MakeApps(&testbed, app_config, n, config.cores);
  for (auto& app : apps) {
    app->Start();
  }
  testbed.RunUntil(WarmupNs());
  std::uint64_t request_bytes0 = 0;
  std::uint64_t response_bytes0 = 0;
  std::uint64_t ops0 = 0;
  for (auto& app : apps) {
    request_bytes0 += app->request_bytes_delivered();
    response_bytes0 += app->response_bytes_delivered();
    ops0 += app->completed();
  }
  AppsRun run;
  run.window = testbed.MeasureWindow(1, WindowNs());
  std::uint64_t request_bytes1 = 0;
  std::uint64_t response_bytes1 = 0;
  std::uint64_t ops1 = 0;
  for (auto& app : apps) {
    request_bytes1 += app->request_bytes_delivered();
    response_bytes1 += app->response_bytes_delivered();
    ops1 += app->completed();
  }
  const double window_ns = static_cast<double>(WindowNs());
  run.request_gbps = static_cast<double>(request_bytes1 - request_bytes0) * 8.0 / window_ns;
  run.response_gbps = static_cast<double>(response_bytes1 - response_bytes0) * 8.0 / window_ns;
  run.ops_per_s = static_cast<double>(ops1 - ops0) / (window_ns / 1e9);
  return run;
}

// The canonical mode-x-iperf sweep shared by Figs 2/3/7/8: runs every
// (mode, x) point in parallel and emits rows in the serial order.
template <typename X, typename MakeConfig>
inline void RunIperfFigure(const std::string& title, const std::string& x_name,
                           const std::vector<ProtectionMode>& modes,
                           const std::vector<X>& xs, std::uint32_t flows_or_zero,
                           MakeConfig make_config) {
  struct Point {
    ProtectionMode mode;
    X x;
  };
  std::vector<Point> points;
  for (ProtectionMode mode : modes) {
    for (const X& x : xs) {
      points.push_back(Point{mode, x});
    }
  }
  const auto runs = ParallelSweep<IperfRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    std::uint32_t flows = flows_or_zero;
    make_config(&config, points[i].x, &flows);
    return RunIperf(config, flows);
  });
  Table table(IperfHeaders(x_name));
  for (std::size_t i = 0; i < points.size(); ++i) {
    AddIperfRow(&table, ProtectionModeName(points[i].mode),
                std::to_string(points[i].x), runs[i]);
  }
  EmitFigure(title, table);
}

}  // namespace bench
}  // namespace fsio

#endif  // FASTSAFE_BENCH_FIGURE_COMMON_H_

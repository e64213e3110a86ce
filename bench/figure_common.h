// Shared helpers for the figures of the fsio_bench runner (bench/fsio_bench.cc).
//
// Every figure sweeps its x-axis, runs the testbed for a warmup + measurement
// window, and prints the same series the paper plots (plus a CSV block for
// plotting).
//
// Sweep points are independent deterministic simulations, so they run on the
// shared SweepRunner thread pool (src/core/sweep_runner.h): build the point
// list, ParallelSweep() the runs, then emit rows serially in point order —
// output is byte-identical to a serial sweep. FSIO_SWEEP_THREADS=1 forces
// serial execution; FSIO_BENCH_SMOKE=1 shrinks every sweep axis to its first
// value and the measurement windows to a CI-budget-friendly size.
//
// Figures share sweep points (Figs 7/8 rerun Figs 2/3 with F&S added; Fig 12's
// bars are Fig 11a's 8 KB points), so RunIperf and RunApps take each point's
// result from a process-wide memo keyed on the whole point value: a point is
// simulated once per process, by whichever figure asks first.
#ifndef FASTSAFE_BENCH_FIGURE_COMMON_H_
#define FASTSAFE_BENCH_FIGURE_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <future>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/request_response.h"
#include "src/core/sweep_runner.h"
#include "src/core/testbed.h"
#include "src/simcore/sync.h"
#include "src/stats/table.h"

namespace fsio::bench {

// The figures, one per bench/<name>.cc, in fsio_bench's run order. A figure
// prints its tables to stdout and throws if one of its own checks fails.
void Fig02Flows();
void Fig03RingSize();
void Fig07FlowsFs();
void Fig08RingSizeFs();
void Fig09RpcTail();
void Fig10RxTx();
void Fig11aRedis();
void Fig11bNginx();
void Fig11cSpdk();
void Fig12Ablation();
void ModelValidation();
void AblationModel();
void ExtSinglePageDesc();
void ExtHugepages();
void TimeseriesConvergence();
void IncastScaling();
void ExtTenantInterference();
void ExtCapability();

// CI smoke mode: one tiny sweep point per axis, short windows.
inline bool SmokeMode() { return std::getenv("FSIO_BENCH_SMOKE") != nullptr; }

inline TimeNs WarmupNs() { return (SmokeMode() ? 2 : 20) * kNsPerMs; }
inline TimeNs WindowNs() { return (SmokeMode() ? 3 : 40) * kNsPerMs; }

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

// The mode axis of the paper's F&S figures: off, strict and F&S.
inline std::vector<ProtectionMode> PaperModes() {
  return WithCapability({ProtectionMode::kOff, ProtectionMode::kStrict, ProtectionMode::kFastSafe});
}

// A figure's (mode, x) sweep points, mode-major.
template <typename X>
struct ModePoint {
  ProtectionMode mode;
  X x;
};

template <typename X>
inline std::vector<ModePoint<X>> ModeGrid(const std::vector<ProtectionMode>& modes,
                                          const std::vector<X>& xs) {
  std::vector<ModePoint<X>> points;
  for (ProtectionMode mode : modes) {
    for (const X& x : xs) {
      points.push_back({mode, x});
    }
  }
  return points;
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

// Sweep points looked up in one memo, and how many of them were simulated.
struct MemoCounts {
  std::uint64_t lookups = 0;
  std::uint64_t simulated = 0;
};

// A mutex-guarded list of (point, result) pairs, searched linearly (a full
// run has ~120 distinct points). Get() simulates each distinct point exactly
// once: the first lookup inserts a pending result and simulates outside the
// lock; a concurrent lookup of the same point waits for that result.
template <typename Point, typename Result>
class PointMemo {
 public:
  Result Get(const Point& point, Result (*simulate)(const Point&)) {
    std::promise<Result> promise;
    std::shared_future<Result> result;
    bool simulate_here = false;
    {
      MutexLock lock(&mu_);
      ++counts_.lookups;
      const auto it = std::find_if(entries_.begin(), entries_.end(),
                                   [&](const auto& entry) { return entry.first == point; });
      if (it != entries_.end()) {
        result = it->second;
      } else {
        result = promise.get_future().share();
        entries_.emplace_back(point, result);
        ++counts_.simulated;
        simulate_here = true;
      }
    }
    if (simulate_here) {
      try {
        promise.set_value(simulate(point));
      } catch (...) {
        promise.set_exception(std::current_exception());  // rethrown to every lookup
      }
    }
    return result.get();
  }

  MemoCounts counts() {
    MutexLock lock(&mu_);
    return counts_;
  }

 private:
  Mutex mu_;
  std::vector<std::pair<Point, std::shared_future<Result>>> entries_ FSIO_GUARDED_BY(mu_);
  MemoCounts counts_ FSIO_GUARDED_BY(mu_);
};

// An iperf sweep point: `flows` bulk flows from host 0 to host 1. It is the
// whole input of the simulation, so it is also the memo key.
struct IperfPoint {
  ClusterConfig config;
  std::uint32_t flows = 0;
  TimeNs warmup = WarmupNs();
  TimeNs window = WindowNs();
  bool operator==(const IperfPoint&) const = default;
};

// The receive-side window metrics, plus the p50/p99 reuse distance of the
// Rx host's IOVA allocation trace (Figs 2e/3e/7e/8e).
struct IperfRun {
  WindowResult window;
  std::uint64_t locality_p50 = 0;
  std::uint64_t locality_p99 = 0;
};

// The simulation behind RunIperf, without the memo.
inline IperfRun SimulateIperf(const IperfPoint& point) {
  ClusterConfig config = point.config;
  config.track_l3_locality_hosts = {1};
  Testbed testbed(config);
  testbed.AddBulkFlows(0, 1, point.flows);
  IperfRun run;
  run.window = testbed.RunWindow(point.warmup, point.window);
  std::vector<std::uint64_t> d = testbed.receiver_host().l3_tracker().distances();
  if (!d.empty()) {
    std::sort(d.begin(), d.end());
    run.locality_p50 = d[d.size() / 2];
    run.locality_p99 = d[d.size() * 99 / 100];
  }
  return run;
}

inline PointMemo<IperfPoint, IperfRun>& IperfMemo() {
  static PointMemo<IperfPoint, IperfRun> memo;
  return memo;
}

inline IperfRun RunIperf(const IperfPoint& point) { return IperfMemo().Get(point, SimulateIperf); }

// A request/response application point (Redis/Nginx/SPDK/ablation): `n`
// instances of `app`; like IperfPoint, the whole input and the memo key.
struct AppsPoint {
  ClusterConfig config;
  RequestResponseConfig app;
  std::uint32_t n = 0;
  TimeNs warmup = WarmupNs();
  TimeNs window = WindowNs();
  bool operator==(const AppsPoint&) const = default;
};

// Application throughput plus the receive-window metrics.
struct AppsRun {
  double request_gbps = 0.0;   // request payload bytes delivered to the server
  double response_gbps = 0.0;  // response payload bytes delivered to clients
  double ops_per_s = 0.0;      // completed request/response round trips
  WindowResult window;         // measured on the server/measured host (host 1)
};

// The simulation behind RunApps, without the memo.
inline AppsRun SimulateApps(const AppsPoint& point) {
  Testbed testbed(point.config);
  auto apps = MakeApps(&testbed, point.app, point.n, point.config.cores);
  for (auto& app : apps) {
    app->Start();
  }
  struct Totals {
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t ops = 0;
  };
  auto totals = [&] {
    Totals t;
    for (auto& app : apps) {
      t.request_bytes += app->request_bytes_delivered();
      t.response_bytes += app->response_bytes_delivered();
      t.ops += app->completed();
    }
    return t;
  };
  testbed.RunUntil(point.warmup);
  const Totals before = totals();
  AppsRun run;
  run.window = testbed.MeasureWindow(1, point.window);
  const Totals after = totals();
  const double window_ns = static_cast<double>(point.window);
  run.request_gbps =
      static_cast<double>(after.request_bytes - before.request_bytes) * 8.0 / window_ns;
  run.response_gbps =
      static_cast<double>(after.response_bytes - before.response_bytes) * 8.0 / window_ns;
  run.ops_per_s = static_cast<double>(after.ops - before.ops) / (window_ns / 1e9);
  return run;
}

inline PointMemo<AppsPoint, AppsRun>& AppsMemo() {
  static PointMemo<AppsPoint, AppsRun> memo;
  return memo;
}

inline AppsRun RunApps(const AppsPoint& point) { return AppsMemo().Get(point, SimulateApps); }

// The mode-x-iperf sweep of Figs 2/3/7/8 at 5 cores: make_point(config, x)
// turns a (mode, x) point's config into the IperfPoint it runs.
template <typename MakePoint>
inline void RunIperfFigure(const std::string& title, const std::string& x_name,
                           const std::vector<ProtectionMode>& modes,
                           const std::vector<std::uint32_t>& xs, MakePoint make_point) {
  const auto points = ModeGrid(modes, xs);
  const auto runs = ParallelSweep<IperfRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 5;
    return RunIperf(make_point(config, points[i].x));
  });
  Table table({"mode", x_name, "gbps", "drop_%", "iotlb/pg", "l1/pg", "l2/pg", "l3/pg",
               "reads/pg", "tx_pkt/pg", "loc_p50", "loc_p99"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const WindowResult& w = runs[i].window;
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddCell(std::to_string(points[i].x));
    table.AddNumber(w.goodput_gbps, 1);
    table.AddNumber(w.drop_rate * 100.0, 2);
    table.AddNumber(w.iotlb_miss_per_page, 2);
    table.AddNumber(w.l1_miss_per_page, 3);
    table.AddNumber(w.l2_miss_per_page, 3);
    table.AddNumber(w.l3_miss_per_page, 3);
    table.AddNumber(w.mem_reads_per_page, 2);
    table.AddNumber(w.tx_packets_per_page, 2);
    table.AddInteger(static_cast<long long>(runs[i].locality_p50));
    table.AddInteger(static_cast<long long>(runs[i].locality_p99));
  }
  EmitFigure(title, table);
}

// The mode-x-application sweep of Figs 11a/b/c: each point runs 8 instances
// of make_app(x KB in bytes) on 8 cores at a 9 KB MTU, and
// add_cells(&table, run) appends the figure's metric cells after mode and x.
template <typename MakeApp, typename AddCells>
inline void RunAppsFigure(const std::string& title, const std::vector<std::string>& headers,
                          const std::vector<std::uint64_t>& kbs, MakeApp make_app,
                          AddCells add_cells) {
  const auto points = ModeGrid(PaperModes(), kbs);
  const auto runs = ParallelSweep<AppsRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 8;
    config.mtu_bytes = 9000;
    return RunApps({config, make_app(points[i].x * 1024), 8});
  });
  Table table(headers);
  for (std::size_t i = 0; i < points.size(); ++i) {
    table.BeginRow();
    table.AddCell(ProtectionModeName(points[i].mode));
    table.AddInteger(static_cast<long long>(points[i].x));
    add_cells(&table, runs[i]);
  }
  EmitFigure(title, table);
}

// Driver invalidation requests per page of received data (inv_req/pg).
inline double InvRequestsPerPage(const WindowResult& window) {
  return window.pages_of_data > 0
             ? static_cast<double>(window.raw_rx_host.at("dma.inv_requests")) /
                   static_cast<double>(window.pages_of_data)
             : 0.0;
}

}  // namespace fsio::bench

#endif  // FASTSAFE_BENCH_FIGURE_COMMON_H_

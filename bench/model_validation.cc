// §2.2 analytical model validation:  T = p / (l0 + M * lm).
//
// The paper fits l0 = 65 ns and lm = 197 ns from its 5- and 10-flow strict
// runs and then predicts measured throughput within ~10% across experiments.
// This bench repeats the exercise on the simulator: fit (l0, lm) from two
// strict configurations, then compare the model's predictions against the
// measured throughput of every other configuration.
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/stats/linear_fit.h"

void fsio::bench::ModelValidation() {
  struct Point {
    ProtectionMode mode;
    std::uint32_t flows;
    std::uint32_t ring;
    std::string label;
  };
  // The fit below uses points[0] and points[3], as the paper fits from its
  // strict runs; keep the list order stable.
  const std::vector<Point> points = {
      {ProtectionMode::kStrict, 5, 256, "strict-5f"},
      {ProtectionMode::kStrict, 10, 256, "strict-10f"},
      {ProtectionMode::kStrict, 20, 256, "strict-20f"},
      {ProtectionMode::kStrict, 40, 256, "strict-40f"},
      {ProtectionMode::kStrict, 5, 1024, "strict-ring1024"},
      {ProtectionMode::kStrict, 5, 2048, "strict-ring2048"},
      {ProtectionMode::kFastSafe, 5, 256, "fs-5f"},
      {ProtectionMode::kFastSafe, 40, 256, "fs-40f"},
  };

  const auto runs = ParallelSweep<IperfRun>(points.size(), [&](std::size_t i) {
    TestbedConfig config;
    config.mode = points[i].mode;
    config.cores = 5;
    config.ring_size_pkts = points[i].ring;
    return RunIperf({config, points[i].flows});
  });

  // Fit from two strict points, as the paper does.
  const double p = 4096.0;
  const ThroughputModel model = FitThroughputModel(
      p, {runs[0].window.mem_reads_per_page, runs[3].window.mem_reads_per_page},
      {runs[0].window.goodput_gbps / 8.0, runs[3].window.goodput_gbps / 8.0});

  Table table({"config", "M(reads/pg)", "measured_gbps", "predicted_gbps", "error_%"});
  double worst = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double reads = runs[i].window.mem_reads_per_page;
    const double gbps = runs[i].window.goodput_gbps;
    const double predicted = std::min(model.PredictBytesPerNs(p, reads) * 8.0, 98.6);
    const double err = gbps > 0 ? 100.0 * (predicted - gbps) / gbps : 0.0;
    worst = std::max(worst, std::abs(err));
    table.BeginRow();
    table.AddCell(points[i].label);
    table.AddNumber(reads, 2);
    table.AddNumber(gbps, 1);
    table.AddNumber(predicted, 1);
    table.AddNumber(err, 1);
  }
  std::ostringstream title;
  title << "Model T = p / (l0 + M*lm), fitted from strict 5- and 40-flow runs:\n"
        << "  l0 = " << model.l0_ns << " ns   (paper: 65 ns)\n"
        << "  lm = " << model.lm_ns << " ns   (paper: 197 ns)\n"
        << "  worst |error| = " << worst << "% (paper: within ~10%)\n\n";
  EmitFigure(title.str(), table);
}

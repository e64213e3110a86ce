// fsio_bench [BENCH...]: runs the named figures (all of them when none is
// named) one after another, in the order of the table below. A sweep point
// that several figures share is simulated once (bench/figure_common.h);
// stderr gets one summary line of points looked up and points simulated.
// Exits 2 on an unknown name and 1 if a figure's own check fails.
#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/cli/flags.h"

namespace fsio::bench {
namespace {

struct Figure {
  const char* name;
  void (*run)();
};

constexpr Figure kFigures[] = {
    {"fig02_flows", Fig02Flows},
    {"fig03_ringsize", Fig03RingSize},
    {"fig07_flows_fs", Fig07FlowsFs},
    {"fig08_ringsize_fs", Fig08RingSizeFs},
    {"fig09_rpc_tail", Fig09RpcTail},
    {"fig10_rxtx", Fig10RxTx},
    {"fig11a_redis", Fig11aRedis},
    {"fig11b_nginx", Fig11bNginx},
    {"fig11c_spdk", Fig11cSpdk},
    {"fig12_ablation", Fig12Ablation},
    {"model_validation", ModelValidation},
    {"ablation_model", AblationModel},
    {"ext_single_page_desc", ExtSinglePageDesc},
    {"ext_hugepages", ExtHugepages},
    {"timeseries_convergence", TimeseriesConvergence},
    {"incast_scaling", IncastScaling},
    {"ext_tenant_interference", ExtTenantInterference},
    {"ext_capability", ExtCapability},
};

int Main(int argc, char** argv) {
  std::vector<std::string> names;
  std::string listed;
  for (const Figure& figure : kFigures) {
    listed += std::string(" ") + figure.name;
  }
  cli::Parse(argc, argv, "fsio_bench", "Regenerates the paper's figures.",
             {cli::Positionals("BENCH...", &names, "figures to run (default: all), any of:" +
                                                       listed)});
  std::vector<bool> selected(std::size(kFigures), names.empty());
  for (const std::string& name : names) {
    const auto it = std::find_if(std::begin(kFigures), std::end(kFigures),
                                 [&](const Figure& figure) { return name == figure.name; });
    if (it == std::end(kFigures)) {
      std::cerr << "fsio_bench: unknown bench '" << name << "' (one of:" << listed << ")\n";
      return 2;
    }
    selected[it - std::begin(kFigures)] = true;
  }

  int status = 0;
  for (std::size_t i = 0; i < std::size(kFigures); ++i) {
    try {
      if (selected[i]) {
        kFigures[i].run();
      }
    } catch (const std::exception& e) {
      std::cerr << "fsio_bench: " << e.what() << "\n";
      status = 1;
    }
  }
  const MemoCounts iperf = IperfMemo().counts();
  const MemoCounts apps = AppsMemo().counts();
  std::cerr << "fsio_bench: " << iperf.lookups + apps.lookups << " sweep points, "
            << iperf.simulated + apps.simulated << " simulated (iperf " << iperf.lookups << "/"
            << iperf.simulated << ", apps " << apps.lookups << "/" << apps.simulated << ")\n";
  return status;
}

}  // namespace
}  // namespace fsio::bench

int main(int argc, char** argv) { return fsio::bench::Main(argc, argv); }

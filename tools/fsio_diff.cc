// Differential fuzzer CLI: drives the real IOMMU/page-table/IOVA/DMA-API
// stack against the deliberately-simple RefModel in lockstep (see
// src/refmodel/) across seeds, protection modes, both IOVA allocator
// configurations and, with --fault-plan, environment fault plans.
//
// Modes of operation:
//   * default sweep          — every (seed, mode, rcache) cell must agree;
//                              any divergence is shrunk to a minimal repro,
//                              printed (and optionally written via
//                              --repro-out), exit 1.
//   * --bug X --expect-divergence
//                            — oracle self-test: EVERY cell must diverge
//                              (the injected bug must be caught), the first
//                              divergence is shrunk and must fit in
//                              --max-repro-ops, and the repro bytes written
//                              (the --repro-out file, if given) must replay
//                              (Parse -> Run still diverges). Exit 0 only
//                              when all of that holds.
//   * --replay FILE          — re-runs a previously written repro file and
//                              reports whether the divergence reproduces.
//
// Output is deterministic for fixed arguments.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/cli/flags.h"
#include "src/driver/protection.h"
#include "src/refmodel/diff_harness.h"
#include "src/refmodel/shrink.h"

namespace fsio {
namespace {

struct Options {
  std::uint64_t seeds = 8;
  std::uint64_t seed_base = 1;
  std::uint32_t ops = 1500;
  std::vector<ProtectionMode> modes{kAllModes.begin(), kAllModes.end()};
  std::vector<bool> rcaches = {true, false};
  std::uint32_t pages_per_chunk = 64;
  std::uint32_t num_cores = 4;
  std::uint32_t domains = 1;
  InjectedBug bug = InjectedBug::kNone;
  std::vector<FaultPlanId> fault_plans = {FaultPlanId::kNone};
  bool expect_divergence = false;
  std::size_t max_repro_ops = 20;
  std::string repro_out;
  std::string replay;
  bool quiet = false;
};

int Replay(const Options& opt) {
  DiffRepro repro;
  return ReplayReproFile(
      DifferentialHarness::Checker(DiffConfig{}, &repro), opt.replay,
      [&](const DiffResult& result, bool diverged) {
        if (diverged) {
          std::printf("replay: DIVERGED at op %zu (%zu ops): %s\n", result.fail_index,
                      repro.ops.size(), result.message.c_str());
          return;
        }
        std::printf("replay: no divergence over %zu ops (mode=%s rcache=%d bug=%s plan=%s)\n",
                    repro.ops.size(), ModeToken(repro.config.mode),
                    repro.config.enable_rcache ? 1 : 0, InjectedBugName(repro.config.bug),
                    FaultPlanName(repro.config.fault_plan));
      });
}

int Main(int argc, char** argv) {
  Options opt;
  cli::Parse(
      argc, argv, "fsio_diff",
      "Differential fuzzer: the real IOMMU/page-table/IOVA/DMA-API stack against\n"
      "the RefModel in lockstep, over seeds, modes, IOVA allocator caches and\n"
      "environment fault plans.",
      {
          cli::Unsigned("seeds", &opt.seeds, "seeds per (plan, mode, rcache) cell"),
          cli::Unsigned("seed-base", &opt.seed_base, "first seed value"),
          cli::Unsigned("ops", &opt.ops, "operations per run"),
          cli::OneOf("mode", &opt.modes, ModeSweepChoices(), "MODE",
                     "protection mode sweep (all) or a single mode"),
          cli::OneOf("rcache", &opt.rcaches,
                     cli::Choices<std::vector<bool>>{
                         {"both", {true, false}}, {"on", {true}}, {"off", {false}}},
                     "R", "IOVA allocator cache configurations"),
          cli::Unsigned("pages-per-chunk", &opt.pages_per_chunk, "Rx descriptor size in pages",
                        1),
          cli::Unsigned("num-cores", &opt.num_cores, "driver cores", 1),
          cli::Unsigned("domains", &opt.domains,
                        "protection domains sharing the IOMMU;\n"
                        ">=2 checks per-tenant semantics + isolation",
                        1),
          cli::OneOf("bug", &opt.bug, BugChoices(), "BUG", "inject a driver/hardware bug"),
          cli::OneOf("fault-plan", &opt.fault_plans, FaultPlanChoices(), "PLAN",
                     "environment faults injected into the stack:\n"
                     "every plan (all) or a single one"),
          cli::Switch("expect-divergence", &opt.expect_divergence,
                      "require every run to diverge (oracle self-test)"),
          cli::Unsigned("max-repro-ops", &opt.max_repro_ops, "shrunken repro size budget"),
          cli::String("repro-out", &opt.repro_out, "FILE",
                      "write the shrunken repro here on divergence"),
          cli::String("replay", &opt.replay, "FILE", "replay a repro file instead of sweeping"),
          cli::Switch("quiet", &opt.quiet, "only print the final summary line"),
      });
  if (!opt.replay.empty()) {
    return Replay(opt);
  }
  if (opt.expect_divergence && opt.bug == InjectedBug::kNone) {
    std::fprintf(stderr, "fsio_diff: --expect-divergence requires --bug\n");
    return 2;
  }

  std::uint64_t runs = 0;
  std::uint64_t diverged = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t total_dmas = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_stale = 0;
  std::uint64_t total_injected = 0;
  bool self_test_ok = true;
  bool first_divergence_handled = false;

  for (FaultPlanId plan : opt.fault_plans) {
    for (ProtectionMode mode : opt.modes) {
      for (bool rcache : opt.rcaches) {
        for (std::uint64_t s = 0; s < opt.seeds; ++s) {
          DiffConfig config;
          config.mode = mode;
          config.enable_rcache = rcache;
          config.seed = opt.seed_base + s;
          config.num_ops = opt.ops;
          config.pages_per_chunk = opt.pages_per_chunk;
          config.num_cores = opt.num_cores;
          config.num_domains = opt.domains;
          config.bug = opt.bug;
          config.fault_plan = plan;
          const std::vector<DiffOp> ops = DifferentialHarness::GenerateOps(config);
          const DiffResult result = DifferentialHarness::Run(config, ops);
          ++runs;
          total_ops += result.ops_executed;
          total_dmas += result.dmas;
          total_faults += result.faults;
          total_stale += result.stale_uses;
          total_injected += result.faults_injected;
          if (result.diverged) {
            ++diverged;
          } else if (opt.expect_divergence) {
            std::printf("self-test FAILED: bug=%s NOT detected (mode=%s rcache=%d seed=%llu "
                        "plan=%s)\n",
                        InjectedBugName(opt.bug), ModeToken(mode), rcache ? 1 : 0,
                        static_cast<unsigned long long>(config.seed), FaultPlanName(plan));
            self_test_ok = false;
          }
          if (result.diverged && !first_divergence_handled) {
            // Shrink, print and write the first divergence; the bytes
            // written must replay it (and, in the self-test, fit the budget).
            first_divergence_handled = true;
            std::printf("DIVERGENCE mode=%s rcache=%d seed=%llu bug=%s plan=%s at op %zu:\n"
                        "  %s\n",
                        ModeToken(mode), rcache ? 1 : 0,
                        static_cast<unsigned long long>(config.seed), InjectedBugName(opt.bug),
                        FaultPlanName(plan), result.fail_index, result.message.c_str());
            DiffRepro repro;
            const auto cx = ShrinkCounterexample(
                DifferentialHarness::Checker(config, &repro), ops, result.fail_index, result,
                opt.expect_divergence ? std::optional(opt.max_repro_ops) : std::nullopt,
                opt.repro_out);
            std::printf("shrunk to %zu ops in %u runs:\n", cx.shrunk.ops.size(), cx.shrunk.runs);
            for (const DiffOp& op : cx.shrunk.ops) {
              std::printf("  %s core=%u arg=%llu\n", OpKindName(op.kind), op.core,
                          static_cast<unsigned long long>(op.arg));
            }
            std::printf("  => %s\n", cx.shrunk.result.message.c_str());
            if (!opt.repro_out.empty()) {
              std::printf("repro written to %s\n", opt.repro_out.c_str());
            }
            if (cx.over_budget) {
              std::printf("self-test FAILED: repro has %zu ops, budget is %zu\n",
                          cx.shrunk.ops.size(), opt.max_repro_ops);
              self_test_ok = false;
            }
            if (cx.replay != ReplayVerdict::kReproduced) {
              std::printf("repro round-trip FAILED to reproduce the divergence\n");
              self_test_ok = false;
            }
            if (!opt.expect_divergence) {
              return 1;
            }
          }
          if (!opt.quiet && !result.diverged) {
            std::printf("ok mode=%s rcache=%d seed=%llu plan=%s ops=%llu maps=%llu unmaps=%llu "
                        "dmas=%llu faults=%llu stale=%llu injected=%llu\n",
                        ModeToken(mode), rcache ? 1 : 0,
                        static_cast<unsigned long long>(config.seed), FaultPlanName(plan),
                        static_cast<unsigned long long>(result.ops_executed),
                        static_cast<unsigned long long>(result.maps),
                        static_cast<unsigned long long>(result.unmaps),
                        static_cast<unsigned long long>(result.dmas),
                        static_cast<unsigned long long>(result.faults),
                        static_cast<unsigned long long>(result.stale_uses),
                        static_cast<unsigned long long>(result.faults_injected));
          }
        }
      }
    }
  }

  std::printf("fsio_diff: %llu runs, %llu diverged, %llu ops, %llu dmas "
              "(%llu faults, %llu stale uses), %llu faults injected\n",
              static_cast<unsigned long long>(runs), static_cast<unsigned long long>(diverged),
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(total_dmas),
              static_cast<unsigned long long>(total_faults),
              static_cast<unsigned long long>(total_stale),
              static_cast<unsigned long long>(total_injected));
  if (opt.expect_divergence) {
    if (diverged == runs && self_test_ok) {
      std::printf("self-test PASSED: bug=%s detected in all %llu runs\n",
                  InjectedBugName(opt.bug), static_cast<unsigned long long>(runs));
      return 0;
    }
    std::printf("self-test FAILED: bug=%s detected in %llu/%llu runs\n", InjectedBugName(opt.bug),
                static_cast<unsigned long long>(diverged), static_cast<unsigned long long>(runs));
    return 1;
  }
  return diverged == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }

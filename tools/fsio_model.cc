// Protocol model checker CLI: exhaustively enumerates interleavings of
// small abstract protection-protocol configurations (driver map/unmap,
// device DMA/IOTLB, capability grant/revoke/quiesce, tenant crash/recovery)
// and checks the SafetyOracle invariant classes on every device access
// (see src/check/).
//
// Modes of operation:
//   * default sweep          — every protection mode (or one, via --mode) is
//                              explored to --depth; any invariant violation
//                              is shrunk to a minimal counterexample trace,
//                              printed (and optionally written via
//                              --trace-out), exit 1.
//   * --bug X --expect-violation
//                            — checker power test: EVERY explored mode the
//                              bug applies to must produce a violation,
//                              whose shrunk trace must fit --max-trace-steps
//                              and whose written bytes (the --trace-out
//                              file, if given) must replay (Parse -> Replay
//                              still violates). Exit 0 only when all hold.
//   * --replay FILE          — re-runs a previously written trace file and
//                              reports whether the violation reproduces.
//
// Output is deterministic for fixed arguments.
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/cli/flags.h"
#include "src/check/model.h"
#include "src/driver/protection.h"
#include "src/refmodel/diff_harness.h"
#include "src/refmodel/shrink.h"

namespace fsio {
namespace {

using check::CheckConfig;
using check::CheckModelConfig;
using check::CheckOutcome;
using check::ModelStep;
using check::ModelViolation;
using check::ReplayOutcome;
using check::TraceRepro;

struct Options {
  std::vector<ProtectionMode> modes{kAllModes.begin(), kAllModes.end()};
  std::uint32_t depth = 12;
  std::uint32_t domains = 1;
  std::uint32_t pages = 2;
  InjectedBug bug = InjectedBug::kNone;
  bool expect_violation = false;
  std::size_t max_trace_steps = 10;
  std::string trace_out;
  std::string replay;
  bool no_por = false;
  bool quiet = false;
};

void PrintTrace(const std::vector<ModelStep>& steps) {
  for (const ModelStep& step : steps) {
    if (step.kind == check::StepKind::kDmaHit) {
      std::printf("  %s domain=%d page=%d entry-owner=%d\n", StepKindName(step.kind),
                  step.domain, step.page, step.aux);
    } else {
      std::printf("  %s domain=%d page=%d\n", StepKindName(step.kind), step.domain,
                  step.page);
    }
  }
}

int Replay(const Options& opt) {
  TraceRepro repro;
  return ReplayReproFile(
      check::TraceChecker(CheckModelConfig{}, ModelViolation::kNone, &repro), opt.replay,
      [&](const ReplayOutcome& result, bool) {
        if (result.violation != ModelViolation::kNone) {
          std::printf("replay: VIOLATED %s at step %zu (%zu steps, mode=%s bug=%s)\n",
                      ModelViolationName(result.violation), result.fail_index,
                      repro.steps.size(), ModeToken(repro.config.mode),
                      InjectedBugName(repro.config.bug));
          return;
        }
        std::printf("replay: no violation over %zu steps (mode=%s bug=%s)\n", repro.steps.size(),
                    ModeToken(repro.config.mode), InjectedBugName(repro.config.bug));
      });
}

int Main(int argc, char** argv) {
  Options opt;
  cli::Parse(
      argc, argv, "fsio_model",
      "Protocol model checker: explores every interleaving of a small abstract\n"
      "protection-protocol configuration and checks the SafetyOracle invariants.",
      {
          cli::OneOf("mode", &opt.modes, ModeSweepChoices(), "MODE",
                     "protection mode sweep (all) or a single mode"),
          cli::Unsigned("depth", &opt.depth, "interleaving bound in micro-steps"),
          cli::Unsigned("domains", &opt.domains,
                        "protection domains; >=2 adds cross-domain isolation checking", 1,
                        check::kMaxDomains),
          cli::Unsigned("pages", &opt.pages, "pages per domain", 1, check::kMaxPages),
          cli::OneOf("bug", &opt.bug, BugChoices(), "BUG", "inject a protocol bug"),
          cli::Switch("expect-violation", &opt.expect_violation,
                      "require every applicable mode to violate\n(checker power test)"),
          cli::Unsigned("max-trace-steps", &opt.max_trace_steps,
                        "shrunk counterexample size budget"),
          cli::String("trace-out", &opt.trace_out, "FILE",
                      "write the shrunk counterexample trace here"),
          cli::String("replay", &opt.replay, "FILE", "replay a trace file instead of exploring"),
          cli::Switch("no-por", &opt.no_por, "disable the partial-order reduction"),
          cli::Switch("quiet", &opt.quiet, "only print the final summary line"),
      });
  if (!opt.replay.empty()) {
    return Replay(opt);
  }
  if (opt.expect_violation && opt.bug == InjectedBug::kNone) {
    std::fprintf(stderr, "fsio_model: --expect-violation requires --bug\n");
    return 2;
  }

  std::uint64_t explored_modes = 0;
  std::uint64_t violated_modes = 0;
  std::uint64_t total_states = 0;
  std::uint64_t total_transitions = 0;
  bool power_test_ok = true;
  bool any_unexpected = false;

  for (ProtectionMode mode : opt.modes) {
    CheckConfig config;
    config.model.mode = mode;
    config.model.bug = opt.bug;
    config.model.domains = opt.domains;
    config.model.pages = opt.pages;
    config.depth = opt.depth;
    config.por = !opt.no_por;
    const bool applicable = check::BugApplies(opt.bug, mode);
    const CheckOutcome outcome = check::RunModelCheck(config);
    ++explored_modes;
    total_states += outcome.stats.states;
    total_transitions += outcome.stats.transitions;

    if (outcome.violation != ModelViolation::kNone) {
      ++violated_modes;
      // A clean protocol (or a mode the bug cannot reach) violating is a
      // genuine protocol or model bug either way; only the power test holds
      // the counterexample to the budget and to replaying.
      const bool power_test = opt.expect_violation && applicable;
      any_unexpected = any_unexpected || !power_test;
      std::printf("VIOLATION mode=%s bug=%s domains=%u pages=%u: %s after %zu steps\n",
                  ModeToken(mode), InjectedBugName(opt.bug), opt.domains, opt.pages,
                  ModelViolationName(outcome.violation), outcome.trace.size());
      const ReplayOutcome first{outcome.violation, outcome.trace.size() - 1};
      TraceRepro repro;
      const auto cx = ShrinkCounterexample(
          check::TraceChecker(config.model, outcome.violation, &repro), outcome.trace,
          first.fail_index, first,
          power_test ? std::optional(opt.max_trace_steps) : std::nullopt, opt.trace_out);
      std::printf("shrunk to %zu steps in %u replays:\n", cx.shrunk.ops.size(), cx.shrunk.runs);
      PrintTrace(cx.shrunk.ops);
      std::printf("  => %s\n", ModelViolationName(cx.shrunk.result.violation));
      if (!opt.trace_out.empty()) {
        std::printf("trace written to %s\n", opt.trace_out.c_str());
      }
      if (cx.over_budget) {
        std::printf("power test FAILED: trace has %zu steps, budget is %zu\n",
                    cx.shrunk.ops.size(), opt.max_trace_steps);
        power_test_ok = false;
      }
      if (power_test && cx.replay != ReplayVerdict::kReproduced) {
        std::printf("trace round-trip FAILED to reproduce the violation\n");
        power_test_ok = false;
      }
    } else {
      if (opt.expect_violation && applicable) {
        std::printf("power test FAILED: bug=%s NOT found in mode=%s "
                    "(%llu states, %llu transitions, depth %u)\n",
                    InjectedBugName(opt.bug), ModeToken(mode),
                    static_cast<unsigned long long>(outcome.stats.states),
                    static_cast<unsigned long long>(outcome.stats.transitions),
                    outcome.stats.depth_reached);
        power_test_ok = false;
      }
      if (!opt.quiet) {
        std::printf("clean mode=%s bug=%s: %llu states, %llu transitions, "
                    "depth %u%s, %llu por-pruned\n",
                    ModeToken(mode), InjectedBugName(opt.bug),
                    static_cast<unsigned long long>(outcome.stats.states),
                    static_cast<unsigned long long>(outcome.stats.transitions),
                    outcome.stats.depth_reached,
                    outcome.stats.depth_bound_hit ? " (bound hit)" : " (exhausted)",
                    static_cast<unsigned long long>(outcome.stats.por_pruned));
      }
    }
  }

  std::printf("fsio_model: %llu modes explored, %llu violated, %llu states, "
              "%llu transitions (depth %u, domains %u, pages %u)\n",
              static_cast<unsigned long long>(explored_modes),
              static_cast<unsigned long long>(violated_modes),
              static_cast<unsigned long long>(total_states),
              static_cast<unsigned long long>(total_transitions), opt.depth,
              opt.domains, opt.pages);
  if (opt.expect_violation) {
    if (power_test_ok && !any_unexpected && violated_modes > 0) {
      std::printf("power test PASSED: bug=%s found in every applicable mode\n",
                  InjectedBugName(opt.bug));
      return 0;
    }
    std::printf("power test FAILED for bug=%s\n", InjectedBugName(opt.bug));
    return 1;
  }
  return violated_modes == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }

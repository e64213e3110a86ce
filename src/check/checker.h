// Exhaustive explicit-state bounded model checker for the protection
// protocols (the fsio_model tool's engine).
//
// Breadth-first search over the abstract protocol model (model.h) from the
// empty initial state, up to a configurable interleaving depth:
//
//   * Visited-state dedup on CANONICAL encodings. BFS visits every state at
//     its minimum depth first, so a plain visited set is exact — no
//     depth-keyed re-exploration is needed.
//   * Symmetry reduction: states are hashed modulo uniform page
//     permutations and domain permutations (CanonicalEncodeState). Pages and
//     domains are fully interchangeable in the model, so each equivalence
//     class is explored once.
//   * Optional partial-order reduction (on by default, --no-por): at each
//     state, a step is pruned when an earlier-enumerated kept step is
//     statically independent of it (StepsIndependent). The pruned
//     interleaving's states are still reached through the kept step, and the
//     pruned step's safety verdict is unchanged there, so verdicts are
//     preserved — but a counterexample can surface a few steps deeper than
//     its true minimum. check_test.cc cross-checks POR-on vs POR-off
//     verdicts over the whole (mode x bug) grid; --no-por is the escape
//     hatch when a trace at its exact minimum depth matters.
//
// Search stops at the first violating step; the counterexample is
// reconstructed from BFS parent pointers (near-minimal by construction) and
// then minimized with the SAME shrinking machinery the differential harness
// uses (src/refmodel/shrink.h) — disabled steps replay as no-ops, so any
// subsequence of a trace is executable, which is exactly the shrinker's
// requirement.
#ifndef FASTSAFE_SRC_CHECK_CHECKER_H_
#define FASTSAFE_SRC_CHECK_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/model.h"

namespace fsio {
namespace check {

struct CheckConfig {
  CheckModelConfig model;
  std::uint32_t depth = 12;  // interleaving bound (steps from the initial state)
  bool por = true;           // partial-order reduction
};

struct CheckStats {
  std::uint64_t states = 0;       // distinct canonical states visited
  std::uint64_t transitions = 0;  // steps executed (incl. self-loop accesses)
  std::uint64_t por_pruned = 0;   // steps skipped by the reduction
  std::uint32_t depth_reached = 0;
  bool depth_bound_hit = false;   // frontier states still had enabled steps
};

struct CheckOutcome {
  ModelViolation violation = ModelViolation::kNone;
  std::vector<ModelStep> trace;  // counterexample; empty when clean
  CheckStats stats;
};

// Explores the full reachable state space (to `depth`) and returns on the
// first invariant violation, or clean with exploration stats.
CheckOutcome RunModelCheck(const CheckConfig& config);

struct ReplayOutcome {
  ModelViolation violation = ModelViolation::kNone;
  std::size_t fail_index = 0;      // step whose execution violated
  std::uint64_t steps_applied = 0; // enabled steps actually executed
};

// Replays `steps` from the initial state; disabled steps are no-ops.
ReplayOutcome ReplayTrace(const CheckModelConfig& config,
                          const std::vector<ModelStep>& steps);

struct ShrunkTrace {
  std::vector<ModelStep> steps;
  ReplayOutcome result;
  std::uint32_t runs = 0;
};

// Minimizes a violating trace, preserving the violation KIND `first` found.
ShrunkTrace ShrinkTrace(const CheckModelConfig& config, std::vector<ModelStep> steps,
                        const ReplayOutcome& first);

// Replayable counterexample files in the shared repro format
// (src/cli/repro.h): header "fsio-model-trace v1", the mode, bug, domains,
// pages and violation keys, "steps N", N "step KIND DOMAIN PAGE AUX" lines,
// "end".
std::string SerializeTrace(const CheckModelConfig& config, ModelViolation violation,
                           const std::vector<ModelStep>& steps);
bool ParseTrace(const std::string& text, CheckModelConfig* config,
                ModelViolation* violation, std::vector<ModelStep>* steps,
                std::string* error);

}  // namespace check
}  // namespace fsio

#endif  // FASTSAFE_SRC_CHECK_CHECKER_H_

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
// then minimized, written and replayed through the SAME counterexample path
// the differential harness uses (src/refmodel/shrink.h, via TraceChecker) —
// disabled steps replay as no-ops, so any subsequence of a trace is
// executable, which is exactly the shrinker's requirement.
#ifndef FASTSAFE_SRC_CHECK_CHECKER_H_
#define FASTSAFE_SRC_CHECK_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/model.h"
#include "src/refmodel/shrink.h"

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

// A bug only has power where its protocol machinery exists: the IOTLB bugs
// need the IOMMU datapath, the capability bug needs the capability check.
// Modes outside a bug's reach must still verify CLEAN under it.
bool BugApplies(InjectedBug bug, ProtectionMode mode);

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

// A trace file's contents. `violation` is also the kind a replay must show
// to reproduce: the shrunk violation until a trace is read back, then the
// file's.
struct TraceRepro {
  CheckModelConfig config;
  ModelViolation violation = ModelViolation::kNone;
  std::vector<ModelStep> steps;
};

// The model checker's side of the shared counterexample path
// (src/refmodel/shrink.h): replays candidate steps under `config`, preserving
// the violation KIND `kind` (stored in repro->violation), writes
// SerializeTrace text and reads text back through ParseTrace and
// ReplayTrace into *repro.
ReproChecker<ModelStep, ReplayOutcome> TraceChecker(const CheckModelConfig& config,
                                                    ModelViolation kind, TraceRepro* repro);

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

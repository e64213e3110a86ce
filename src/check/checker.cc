#include "src/check/checker.h"

#include <deque>
#include <unordered_set>
#include <utility>

#include "src/cli/repro.h"

namespace fsio {
namespace check {

namespace {

struct Node {
  ModelState state;
  std::int64_t parent = -1;  // index into the node arena; -1 = initial state
  ModelStep step;            // edge from parent to this node
  std::uint32_t depth = 0;
};

std::vector<ModelStep> ReconstructTrace(const std::vector<Node>& nodes,
                                        std::int64_t leaf, const ModelStep& last) {
  std::vector<ModelStep> trace;
  for (std::int64_t i = leaf; i >= 0; i = nodes[static_cast<std::size_t>(i)].parent) {
    trace.push_back(nodes[static_cast<std::size_t>(i)].step);
  }
  // The initial node carries no edge; everything else reverses into order.
  if (!trace.empty()) {
    trace.pop_back();
  }
  std::vector<ModelStep> ordered(trace.rbegin(), trace.rend());
  ordered.push_back(last);
  return ordered;
}

}  // namespace

bool BugApplies(InjectedBug bug, ProtectionMode mode) {
  switch (bug) {
    case InjectedBug::kNone:
      return false;
    case InjectedBug::kUseAfterUnmap:
    case InjectedBug::kSkipInvalidation:
    case InjectedBug::kEarlyReclaim:
      // Persistent pools never invalidate or reclaim, so the unmap-path
      // bugs have nothing to break there.
      return UsesIommu(mode) && mode != ProtectionMode::kHugepagePersistent;
    case InjectedBug::kUntaggedIotlb:
      // Tag-blind lookups breach isolation in every IOMMU datapath mode,
      // persistent pools included — no unmap is needed for the cross hit.
      return UsesIommu(mode);
    case InjectedBug::kSkipCapabilityCheck:
      return mode == ProtectionMode::kCapability;
  }
  return false;
}

CheckOutcome RunModelCheck(const CheckConfig& config) {
  CheckOutcome out;
  std::vector<Node> nodes;
  std::deque<std::size_t> frontier;
  std::unordered_set<std::string> visited;

  nodes.push_back(Node{});  // the empty initial state
  visited.insert(CanonicalEncodeState(nodes[0].state, config.model));
  frontier.push_back(0);
  out.stats.states = 1;

  std::vector<ModelStep> enabled;
  std::vector<ModelStep> kept;
  while (!frontier.empty()) {
    const std::size_t node_index = frontier.front();
    frontier.pop_front();
    const std::uint32_t depth = nodes[node_index].depth;
    if (depth > out.stats.depth_reached) {
      out.stats.depth_reached = depth;
    }

    enabled.clear();
    EnumerateSteps(nodes[node_index].state, config.model, &enabled);
    if (depth >= config.depth) {
      if (!enabled.empty()) {
        out.stats.depth_bound_hit = true;
      }
      continue;
    }

    kept.clear();
    for (const ModelStep& step : enabled) {
      if (config.por) {
        bool pruned = false;
        for (const ModelStep& earlier : kept) {
          if (StepsIndependent(config.model, earlier, step)) {
            pruned = true;
            break;
          }
        }
        if (pruned) {
          ++out.stats.por_pruned;
          continue;
        }
      }
      kept.push_back(step);

      ModelState next = nodes[node_index].state;
      const StepOutcome result = ApplyStep(&next, config.model, step);
      ++out.stats.transitions;
      if (result.violation != ModelViolation::kNone) {
        out.violation = result.violation;
        out.trace =
            ReconstructTrace(nodes, static_cast<std::int64_t>(node_index), step);
        return out;
      }
      if (!result.changed) {
        continue;  // self-loop (legal device access): nothing new to explore
      }
      std::string key = CanonicalEncodeState(next, config.model);
      if (!visited.insert(std::move(key)).second) {
        continue;
      }
      ++out.stats.states;
      nodes.push_back(Node{next, static_cast<std::int64_t>(node_index), step,
                           depth + 1});
      frontier.push_back(nodes.size() - 1);
    }
  }
  return out;
}

ReplayOutcome ReplayTrace(const CheckModelConfig& config,
                          const std::vector<ModelStep>& steps) {
  ReplayOutcome out;
  ModelState state;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepOutcome result = ApplyStep(&state, config, steps[i]);
    if (result.changed || result.violation != ModelViolation::kNone) {
      ++out.steps_applied;
    }
    if (result.violation != ModelViolation::kNone) {
      out.violation = result.violation;
      out.fail_index = i;
      return out;
    }
  }
  return out;
}

namespace {

// The trace file's settings, bound to *config and *violation: the one table
// both SerializeTrace and ParseTrace use.
cli::ReproFormat TraceFormat(CheckModelConfig* config, ModelViolation* violation) {
  cli::Choices<ModelViolation> violations;
  for (int v = 0; v <= static_cast<int>(ModelViolation::kDmaAfterRevoke); ++v) {
    violations.emplace_back(ModelViolationName(static_cast<ModelViolation>(v)),
                            static_cast<ModelViolation>(v));
  }
  return {"fsio-model-trace v1",
          {cli::OneOf("mode", &config->mode, ModeTokenChoices(), "MODE", ""),
           cli::OneOf("bug", &config->bug, BugChoices(), "BUG", ""),
           cli::Unsigned("domains", &config->domains, "", 1, kMaxDomains),
           cli::Unsigned("pages", &config->pages, "", 1, kMaxPages),
           cli::OneOf("violation", violation, std::move(violations), "VIOLATION", "")},
          "step"};
}

// A step line: kind, domain, page, aux, within the model's hard ceilings.
constexpr std::size_t kStepFields = 4;

std::vector<cli::Flag> StepFields(ModelStep* step) {
  cli::Choices<StepKind> kinds;
  for (int k = 0; k < static_cast<int>(StepKind::kCount); ++k) {
    kinds.emplace_back(StepKindName(static_cast<StepKind>(k)), static_cast<StepKind>(k));
  }
  return {cli::OneOf("kind", &step->kind, std::move(kinds), "KIND", ""),
          cli::Unsigned("domain", &step->domain, "", 0, kMaxDomains - 1),
          cli::Unsigned("page", &step->page, "", 0, kMaxPages - 1),
          cli::Unsigned("aux", &step->aux, "", 0, kMaxDomains - 1)};
}

}  // namespace

std::string SerializeTrace(const CheckModelConfig& config, ModelViolation violation,
                           const std::vector<ModelStep>& steps) {
  CheckModelConfig bound = config;
  return cli::WriteRepro(TraceFormat(&bound, &violation),
                         cli::FormatRecords(steps, StepFields, kStepFields));
}

bool ParseTrace(const std::string& text, CheckModelConfig* config,
                ModelViolation* violation, std::vector<ModelStep>* steps,
                std::string* error) {
  *config = CheckModelConfig{};
  *violation = ModelViolation::kNone;
  steps->clear();
  if (!cli::ReadRepro(text, TraceFormat(config, violation),
                      cli::AppendRecords(steps, StepFields, kStepFields), error)) {
    return false;
  }
  // Keys may arrive in any order, so step operands are checked against the
  // parsed configuration only once the whole file is in (the step rows only
  // enforce the hard kMaxDomains/kMaxPages ceilings).
  for (const ModelStep& step : *steps) {
    if (step.domain >= config->domains || step.page >= config->pages ||
        step.aux >= config->domains) {
      *error = "step operand out of range for the configuration";
      return false;
    }
  }
  return true;
}

ReproChecker<ModelStep, ReplayOutcome> TraceChecker(const CheckModelConfig& config,
                                                    ModelViolation kind, TraceRepro* repro) {
  repro->violation = kind;
  return {"fsio_model",
          [config](const std::vector<ModelStep>& steps) { return ReplayTrace(config, steps); },
          [repro](const ReplayOutcome& r) {
            return r.violation != ModelViolation::kNone && r.violation == repro->violation;
          },
          [config, kind](const std::vector<ModelStep>& steps) {
            return SerializeTrace(config, kind, steps);
          },
          [repro](const std::string& text, std::string* error) -> std::optional<ReplayOutcome> {
            if (!ParseTrace(text, &repro->config, &repro->violation, &repro->steps, error)) {
              return std::nullopt;
            }
            return ReplayTrace(repro->config, repro->steps);
          }};
}

}  // namespace check
}  // namespace fsio

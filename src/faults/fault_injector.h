// Deterministic fault injection for the simulated IO-protection datapath.
//
// A FaultPlan is a declarative list of FaultSpecs: each names a fault kind,
// a trigger window (in sim-time and/or in per-kind operation count), an
// optional core/level filter, a firing probability and a magnitude. The
// FaultInjector evaluates specs with a per-kind SplitMix64 stream derived
// from the plan seed, so the same plan + seed + workload always produces the
// same fault sequence — a prerequisite for reproducible violation traces
// and for replaying fsio_diff --fault-plan repros.
//
// Components never know which plan is active; they ask "does fault K fire
// here?" at their hook point and apply the returned magnitude. A null
// injector pointer (the default everywhere) means no faults and zero cost on
// the hot path beyond one pointer test.
#ifndef FASTSAFE_SRC_FAULTS_FAULT_INJECTOR_H_
#define FASTSAFE_SRC_FAULTS_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/simcore/rng.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"

namespace fsio {

enum class FaultKind : int {
  kInvalidationStall = 0,    // IOMMU invalidation completion delayed
  kInvalidationDrop,         // invalidation request lost; caller must retry
  kWalkerLatencySpike,       // extra latency on one page-table walk
  kIovaExhaustion,           // IOVA allocation transiently fails
  kFrameAllocFailure,        // physical frame allocation transiently fails
  kDescCompletionReorder,    // NIC delays a descriptor completion
  kDescCompletionDuplicate,  // NIC delivers a descriptor completion twice
  kRootComplexBackpressure,  // RC admission stalls for a burst
  kDeferredFlushDelay,       // deferred-mode flush postponed past threshold
  kUseAfterRelease,          // device touches a released persistent buffer
  // Cluster-scale fault domains (ISSUE 6). New kinds append here so the
  // per-kind RNG streams of the device-local kinds above keep their seeds
  // and existing fault sequences stay byte-identical.
  kLinkFlap,                 // switch port transiently down, then restored
  kSwitchPortDown,           // switch port administratively down
  kSwitchFailure,            // whole switch down: every port drops
  kPacketCorruption,         // fabric corrupts a packet (receiver CRC drops it)
  kPacketLossBurst,          // burst of packet losses on a switch port
  kHostCrash,                // host crashes at an arbitrary sim time
  kCount,
};

constexpr const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kInvalidationStall:
      return "invalidation_stall";
    case FaultKind::kInvalidationDrop:
      return "invalidation_drop";
    case FaultKind::kWalkerLatencySpike:
      return "walker_latency_spike";
    case FaultKind::kIovaExhaustion:
      return "iova_exhaustion";
    case FaultKind::kFrameAllocFailure:
      return "frame_alloc_failure";
    case FaultKind::kDescCompletionReorder:
      return "desc_completion_reorder";
    case FaultKind::kDescCompletionDuplicate:
      return "desc_completion_duplicate";
    case FaultKind::kRootComplexBackpressure:
      return "root_complex_backpressure";
    case FaultKind::kDeferredFlushDelay:
      return "deferred_flush_delay";
    case FaultKind::kUseAfterRelease:
      return "use_after_release";
    case FaultKind::kLinkFlap:
      return "link_flap";
    case FaultKind::kSwitchPortDown:
      return "switch_port_down";
    case FaultKind::kSwitchFailure:
      return "switch_failure";
    case FaultKind::kPacketCorruption:
      return "packet_corruption";
    case FaultKind::kPacketLossBurst:
      return "packet_loss_burst";
    case FaultKind::kHostCrash:
      return "host_crash";
    case FaultKind::kCount:
      break;
  }
  return "?";
}

inline constexpr std::uint64_t kFaultNoLimit = ~0ULL;

// One declarative fault rule. A spec fires when the hook point's kind
// matches, the sim-time and op-count windows contain the sample, the
// core/level filters accept it, the per-spec fire budget is not exhausted,
// and the probability draw succeeds.
//
// Matching contract (audited; tests/faults_test.cc pins every boundary):
//
//   * Both windows are half-open: sim time matches when
//     window_start_ns <= now < window_end_ns, and the op window matches when
//     op_start <= op < op_end. An op window [N, N+1) matches exactly the
//     (N+1)-th Sample() call for the kind.
//   * Every Sample() call advances the kind's sample counter by exactly one,
//     whether or not any spec matches or fires. The op index evaluated
//     against the window is the pre-advance counter, so the very first
//     Sample() of a kind sees op == 0.
//   * target_core / target_level filters apply only when BOTH the spec and
//     the hook point supply a value (>= 0); either side passing -1 matches.
//   * max_fires is a per-spec budget of actual fires (not matches): it is
//     checked before the probability draw, and only a successful fire
//     consumes it. A spec whose budget is exhausted is skipped as if absent.
//   * Specs are evaluated in plan order and the first spec that passes every
//     filter AND its probability draw fires; at most one spec fires per
//     sample. A spec that fails only its probability draw does not stop the
//     scan — a later spec may still fire on the same sample.
//   * The probability draw consumes the kind's RNG stream only when
//     probability < 1.0 and every other filter already passed, so adding a
//     never-matching spec cannot perturb an existing fault sequence.
struct FaultSpec {
  FaultKind kind = FaultKind::kCount;
  double probability = 1.0;
  TimeNs window_start_ns = 0;  // sim-time trigger window [start, end)
  TimeNs window_end_ns = ~static_cast<TimeNs>(0);
  std::uint64_t op_start = 0;  // per-kind sample-count window [start, end)
  std::uint64_t op_end = kFaultNoLimit;
  std::int32_t target_core = -1;   // -1 matches any core
  std::int32_t target_level = -1;  // -1 matches any page-table level
  TimeNs magnitude_ns = 1000;      // stall / delay applied when firing
  std::uint64_t max_fires = kFaultNoLimit;
};

struct FaultPlan {
  std::string name = "baseline";
  std::uint64_t seed = 1;
  std::vector<FaultSpec> specs;

  FaultPlan& Add(const FaultSpec& spec) {
    specs.push_back(spec);
    return *this;
  }
};

struct FaultDecision {
  bool fire = false;
  TimeNs magnitude_ns = 0;
  explicit operator bool() const { return fire; }
};

class FaultInjector {
 public:
  // `stats` may be null; when provided, per-kind injection counters are
  // published as "faults.injected.<kind>".
  explicit FaultInjector(const FaultPlan& plan, StatsRegistry* stats = nullptr);

  // Evaluates the plan at one hook point. Each call advances the kind's
  // sample counter by exactly one, so op-count windows are deterministic.
  // At most one spec fires per sample (first match in plan order wins).
  FaultDecision Sample(FaultKind kind, TimeNs now, std::int32_t core = -1,
                       std::int32_t level = -1);

  std::uint64_t sampled(FaultKind kind) const {
    return samples_[static_cast<int>(kind)];
  }
  std::uint64_t fired(FaultKind kind) const { return fires_[static_cast<int>(kind)]; }
  std::uint64_t total_fired() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  FaultPlan plan_;
  std::array<Rng, static_cast<int>(FaultKind::kCount)> rngs_;
  std::array<std::uint64_t, static_cast<int>(FaultKind::kCount)> samples_{};
  std::array<std::uint64_t, static_cast<int>(FaultKind::kCount)> fires_{};
  std::vector<std::uint64_t> spec_fires_;  // parallel to plan_.specs
  std::array<Counter*, static_cast<int>(FaultKind::kCount)> counters_{};
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_FAULTS_FAULT_INJECTOR_H_

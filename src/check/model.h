// Abstract protocol model for the bounded model checker.
//
// This is the protection protocol reduced to the state that decides safety
// and nothing else: for each (domain, page) slot, where the driver is in the
// map/unmap ladder, what the device's IOTLB caches about the slot, and
// whether the slot's backing frame is still live. Per-mode behavior comes
// from the SAME tables the simulator uses — UnmapSemanticsFor()
// (src/driver/protection.h, the table DmaApi dispatches on) picks the unmap
// ladder,
// CapabilityCheckPasses() (src/capability/capability_table.h) is the
// capability admission rule, and RecoveryStep (src/faults/recovery_protocol.h)
// is the crash-recovery ladder — so the checker exercises the protocols the
// implementation claims to follow, not a private re-derivation.
//
// The model splits each protocol operation into its micro-steps (teardown vs
// invalidation-complete, revoke vs quiesce-complete, the recovery ladder) so
// the checker can interleave device DMA into every window a real concurrent
// NIC could hit. The device is cooperative but its caches are not: it only
// *initiates* access to pages the driver handed it, yet any access may be
// served by a stale IOTLB entry. That is the paper's threat model, and it is
// why the checked invariants are the reclaim/aliasing/isolation properties
// (the SafetyOracle's classes) rather than mere use-after-unmap: a stale hit
// into a not-yet-reclaimed frame is a latency anomaly, a stale hit into a
// reclaimed or re-owned frame is memory corruption.
//
// Everything in this header is pure value types + free functions over them:
// EnumerateSteps lists the enabled micro-steps of a state, ApplyStep
// executes one and reports the safety verdict. The checker (checker.h) owns
// search, reduction and counterexample handling.
#ifndef FASTSAFE_SRC_CHECK_MODEL_H_
#define FASTSAFE_SRC_CHECK_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/capability/capability_table.h"
#include "src/driver/protection.h"
#include "src/faults/recovery_protocol.h"
#include "src/refmodel/diff_harness.h"

namespace fsio {
namespace check {

// Hard ceilings on configuration size: the checker is exhaustive, so the
// point is small configurations explored completely, not big ones sampled.
inline constexpr std::uint32_t kMaxDomains = 3;
inline constexpr std::uint32_t kMaxPages = 4;

struct CheckModelConfig {
  ProtectionMode mode = ProtectionMode::kStrict;
  InjectedBug bug = InjectedBug::kNone;
  std::uint32_t domains = 1;  // 1..kMaxDomains
  std::uint32_t pages = 2;    // per domain, 1..kMaxPages
};

// Where one (domain, page) slot's driver is in the unmap protocol. The
// ladder shape per mode is UnmapSemanticsFor(mode):
//   kSyncInvalidate:     kMapped -> kInvPending -> kReclaimReady -> kUnmapped
//   kDeferredInvalidate: kMapped -> kDeferredPending -(flush)-> kReclaimReady
//   kRevokeCapability:   kMapped -> kQuiescing -> kReclaimReady -> kUnmapped
//   kNoProtection:       kMapped -> kReclaimReady -> kUnmapped
//   kReleaseOnly:        kMapped -> kUnmapped (translation persists, no reclaim)
enum class MapStage : std::uint8_t {
  kUnmapped = 0,
  kMapped,
  kInvPending,       // unmap returned its teardown; IOTLB invalidation pending
  kDeferredPending,  // deferred unmap returned; batched flush pending
  kQuiescing,        // capability revoked; armed-descriptor drain pending
  kReclaimReady,     // protocol says the frame may now be reclaimed
};

const char* MapStageName(MapStage stage);

// One (domain, page) slot. `entry_*` is the device-side IOTLB entry this
// domain installed for the page (entries are per-slot; the untagged-IOTLB
// bug makes OTHER domains' lookups match it too). `translated` is whether
// the IO page table still resolves the page (what a fresh walk sees);
// `frame_retired` is whether the slot's last backing frame went back to the
// allocator. `armed` is the capability table's armed bit.
struct Slot {
  MapStage stage = MapStage::kUnmapped;
  bool translated = false;
  bool frame_retired = false;
  bool entry_present = false;
  bool entry_current = false;   // entry belongs to the LIVE mapping generation
  bool entry_reclaimed = false; // the frame the entry resolves to was reclaimed
  bool armed = false;

  bool operator==(const Slot& o) const {
    return stage == o.stage && translated == o.translated &&
           frame_retired == o.frame_retired && entry_present == o.entry_present &&
           entry_current == o.entry_current && entry_reclaimed == o.entry_reclaimed &&
           armed == o.armed;
  }
};

struct DomainState {
  bool crashed = false;
  RecoveryStep recovery = RecoveryStep::kIdle;
  Slot slots[kMaxPages];
};

struct ModelState {
  DomainState domains[kMaxDomains];
};

// The micro-steps the checker interleaves. Driver and recovery steps come in
// protocol order; device steps may fire whenever hardware could issue them.
enum class StepKind : std::uint8_t {
  kMap = 0,           // driver maps (grant, in capability mode) a page
  kUnmapBegin,        // driver unmap/release/revoke returns its teardown
  kInvalidateComplete,// the unmap's IOTLB invalidation lands (sync modes)
  kDeferredFlush,     // batched flush for every deferred-pending page (domain op)
  kQuiesceComplete,   // armed-descriptor drain finishes (capability mode)
  kReclaim,           // frame returns to the allocator
  kDmaWalk,           // device misses IOTLB, walks, installs an entry
  kDmaHit,            // device access served from a cached entry (aux = owner domain)
  kDmaEvict,          // hardware silently evicts the cached entry
  kCapDma,            // capability-mode device access (check + DMA)
  kDmaDirect,         // iommu-off device access (physical addresses)
  kCrash,             // tenant/host dies mid-protocol
  kRecoverStep,       // one rung of the RecoveryStep ladder
  kCount,
};

const char* StepKindName(StepKind kind);

struct ModelStep {
  StepKind kind = StepKind::kMap;
  std::uint8_t domain = 0;
  std::uint8_t page = 0;   // unused for kDeferredFlush/kCrash/kRecoverStep
  std::uint8_t aux = 0;    // kDmaHit: domain that owns the entry being hit

  bool operator==(const ModelStep& o) const {
    return kind == o.kind && domain == o.domain && page == o.page && aux == o.aux;
  }
};

// The checked invariants: exactly the SafetyOracle's catastrophic classes
// (src/faults/safety_oracle.h) plus the capability contract. Names match the
// oracle's TraceString tokens so counterexamples read like oracle reports.
enum class ModelViolation : std::uint8_t {
  kNone = 0,
  kDmaToReclaimedFrame,  // device access landed in a reclaimed frame
  kStaleDmaTranslation,  // stale entry aliased a page's LIVE new mapping
  kCrossDomainHit,       // access served by another domain's entry
  kDmaAfterRevoke,       // capability-mode access after revoke returned
};

const char* ModelViolationName(ModelViolation violation);

struct StepOutcome {
  bool changed = false;  // state differs from the pre-step state
  ModelViolation violation = ModelViolation::kNone;
};

// True if `step` may fire in `state` under `config`. ApplyStep on a disabled
// step is a no-op (that is what makes traces shrinkable subsequence-wise).
bool StepEnabled(const ModelState& state, const CheckModelConfig& config,
                 const ModelStep& step);

// Executes `step` (if enabled) in place and reports the safety verdict of
// any device access it models. Pure on (state, config, step).
StepOutcome ApplyStep(ModelState* state, const CheckModelConfig& config,
                      const ModelStep& step);

// Appends every enabled step of `state` in canonical order (deterministic
// across runs; the search and the partial-order reduction both rely on it).
void EnumerateSteps(const ModelState& state, const CheckModelConfig& config,
                    std::vector<ModelStep>* out);

// Byte-encodes the state for hashing: domains * (1 + 2*pages) bytes.
std::string EncodeState(const ModelState& state, const CheckModelConfig& config);

// Smallest encoding over uniform page permutations x domain permutations.
// Pages are permuted by the SAME permutation in every domain because the
// untagged-IOTLB bug couples domains through shared page indices; permuting
// them independently would merge states that are NOT behaviorally equivalent.
std::string CanonicalEncodeState(const ModelState& state, const CheckModelConfig& config);

// Static independence for the partial-order reduction: true only when the
// two steps touch disjoint slots, neither is a domain-global or recovery
// step, and no untagged-IOTLB coupling is in play — i.e. executing them in
// either order reaches the same state and neither changes the other's
// safety verdict.
bool StepsIndependent(const CheckModelConfig& config, const ModelStep& a,
                      const ModelStep& b);

}  // namespace check
}  // namespace fsio

#endif  // FASTSAFE_SRC_CHECK_MODEL_H_

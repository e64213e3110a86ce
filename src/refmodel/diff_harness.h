// Differential harness: drives the real Iommu/IoPageTable/IovaAllocator/
// DmaApi stack and the RefModel in lockstep from a seeded random workload,
// asserting after every operation that translations, fault outcomes, state
// sizes and safety classifications agree.
//
// Workloads are generated upfront as self-contained operation vectors:
// every target reference is `arg % live_count`, so ANY subsequence of a
// workload is still executable. That is what makes shrinking trivial — on
// divergence, the shared counterexample path (shrink.h, through Checker())
// binary-searches the shortest failing prefix and then greedily drops
// operations until a local minimum, yielding a replayable repro of a handful
// of ops.
//
// Injected bugs (reusing the PR-1 fault-injection machinery where the bug
// lives in the real stack, and harness-level bypasses where the bug is a
// driver omission) prove the oracle catches the failure classes the paper's
// design guards against:
//   * kUseAfterUnmap      — the driver claims an unmap it never performed.
//   * kSkipInvalidation   — the driver unmaps but skips the IOTLB
//                           invalidation (raw page-table teardown).
//   * kEarlyReclaim       — table pages are reclaimed without the PTcache
//                           invalidation (DmaApiConfig::
//                           inject_skip_reclaim_invalidation, PR-1).
//   * kUntaggedIotlb      — IOTLB entries lose their domain tag
//                           (IommuConfig::inject_untagged_iotlb): one
//                           tenant's lookups can hit another tenant's
//                           entries. Meaningful only with num_domains >= 2.
//   * kSkipCapabilityCheck — the device fetches descriptors without
//                           honoring the capability check verdict
//                           (capability mode's one protection point): a
//                           revoked buffer is accessed anyway. Meaningful
//                           only with mode == kCapability.
//
// Environment fault plans (FaultPlanId) run the same lockstep checks while a
// seeded FaultInjector perturbs the stack: lost and stalled invalidations,
// walker latency spikes, transient IOVA/frame allocation failures, reordered
// and duplicated descriptor completions, postponed deferred flushes. None of
// them may move the real stack off the contract; a duplicate completion must
// leave the model unchanged and be reported by the driver as a double unmap,
// and the driver's registered structural invariants must hold throughout.
//
// Multi-domain runs (num_domains >= 2) drive one shared IOMMU with a full
// per-domain stack (page table, IOVA allocator, DmaApi, oracle, RefModel)
// behind each domain id; each op dispatches to a domain by its arg's high
// bits. Per-domain semantics must hold independently, and the cross-domain
// violation count must stay zero — tenant isolation as a checkable contract.
#ifndef FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_
#define FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/protection.h"
#include "src/refmodel/ref_model.h"
#include "src/refmodel/shrink.h"

namespace fsio {

enum class InjectedBug : int {
  kNone = 0,
  kUseAfterUnmap,
  kSkipInvalidation,
  kEarlyReclaim,
  kUntaggedIotlb,
  kSkipCapabilityCheck,
};

// Bug tokens for CLI flags and repro files, one per InjectedBug in
// declaration order.
inline constexpr const char* kBugTokens[] = {
    "none",          "use-after-unmap", "skip-invalidation",
    "early-reclaim", "untagged-iotlb",  "skip-capability-check",
};
static_assert(std::size(kBugTokens) ==
              static_cast<std::size_t>(InjectedBug::kSkipCapabilityCheck) + 1);

constexpr const char* InjectedBugName(InjectedBug bug) {
  return kBugTokens[static_cast<std::size_t>(bug)];
}

enum class FaultPlanId : int {
  kNone = 0,
  kInvStallDrop,     // lost invalidations (retry ladder, global flush) + stalls
  kWalkerSpike,      // page-table walk latency spikes
  kAllocPressure,    // transient IOVA and frame allocation failures
  kCompletionChaos,  // reordered and duplicated descriptor completions
  kDelayedFlush,     // deferred-mode flush-queue drain postponed
};

// Fault plan tokens for CLI flags and repro files, one per FaultPlanId in
// declaration order.
inline constexpr const char* kFaultPlanTokens[] = {
    "none",           "inv-stall-drop",   "walker-spike",
    "alloc-pressure", "completion-chaos", "delayed-flush",
};
static_assert(std::size(kFaultPlanTokens) ==
              static_cast<std::size_t>(FaultPlanId::kDelayedFlush) + 1);

constexpr const char* FaultPlanName(FaultPlanId plan) {
  return kFaultPlanTokens[static_cast<std::size_t>(plan)];
}

enum class OpKind : int {
  kMapRx = 0,   // map one descriptor's worth of pages (or acquire persistent)
  kMapTx,       // map a single Tx page
  kUnmap,       // unmap/release a random live descriptor
  kDmaLive,     // device DMA to a random live mapping
  kDmaRetired,  // device DMA to a recently unmapped/released IOVA
};

constexpr const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMapRx:
      return "map_rx";
    case OpKind::kMapTx:
      return "map_tx";
    case OpKind::kUnmap:
      return "unmap";
    case OpKind::kDmaLive:
      return "dma_live";
    case OpKind::kDmaRetired:
      return "dma_retired";
  }
  return "?";
}

struct DiffOp {
  OpKind kind = OpKind::kMapRx;
  std::uint32_t core = 0;
  std::uint64_t arg = 0;  // self-contained target selector (reduced mod pool sizes)
};

struct DiffConfig {
  ProtectionMode mode = ProtectionMode::kStrict;
  bool enable_rcache = true;
  std::uint64_t seed = 1;
  std::uint32_t num_ops = 1500;
  std::uint32_t pages_per_chunk = 64;
  std::uint32_t num_cores = 4;
  InjectedBug bug = InjectedBug::kNone;
  // 1 = the classic single-tenant harness (host domain only). >= 2 builds a
  // per-domain stack behind each of that many tenant domains on one IOMMU.
  std::uint32_t num_domains = 1;
  // Environment faults injected into the stack, seeded from `seed`.
  FaultPlanId fault_plan = FaultPlanId::kNone;
};

struct DiffResult {
  bool diverged = false;
  std::size_t fail_index = 0;  // index of the op whose check failed
  std::string message;
  std::uint64_t ops_executed = 0;
  std::uint64_t maps = 0;
  std::uint64_t unmaps = 0;
  std::uint64_t dmas = 0;
  std::uint64_t faults = 0;
  std::uint64_t stale_uses = 0;
  std::uint64_t use_after_unmap = 0;  // oracle count over domains (model-predicted)
  // Fault-plan accounting, summed over domains (zero without a plan).
  std::uint64_t faults_injected = 0;
  std::uint64_t duplicate_completions = 0;  // injected duplicates replayed
  std::uint64_t flush_delays = 0;           // deferred flushes postponed
  std::uint64_t inv_retries = 0;
  std::uint64_t inv_fallbacks = 0;          // global/domain flush fallbacks
  std::uint64_t double_unmaps = 0;          // reported by the driver
};

// A repro file's contents.
struct DiffRepro {
  DiffConfig config;
  std::vector<DiffOp> ops;
};

// Token -> value choices for the fsio_diff and fsio_model flags: --bug;
// --mode as "all" (every mode) or one mode token; --fault-plan as "all"
// (every plan but none) or one plan token.
std::vector<std::pair<std::string, InjectedBug>> BugChoices();
std::vector<std::pair<std::string, std::vector<ProtectionMode>>> ModeSweepChoices();
std::vector<std::pair<std::string, std::vector<FaultPlanId>>> FaultPlanChoices();

class DifferentialHarness {
 public:
  // Seeded workload generation (pure function of the config).
  static std::vector<DiffOp> GenerateOps(const DiffConfig& config);

  // Executes `ops` against a fresh stack + fresh model, stopping at the
  // first divergence.
  static DiffResult Run(const DiffConfig& config, const std::vector<DiffOp>& ops);

  // The harness's side of the shared counterexample path (shrink.h): runs
  // candidate ops under `config`, fails on divergence, writes Serialize text
  // and reads text back through Parse and Run, leaving what it parsed in
  // *repro.
  static ReproChecker<DiffOp, DiffResult> Checker(const DiffConfig& config, DiffRepro* repro);

  // Replayable repro files in the shared format (src/cli/repro.h): header
  // "fsio-diff-repro v1", one line per DiffConfig key, "ops N", N
  // "op KIND CORE ARG" lines, "end". Parse starts from a default DiffConfig,
  // so a file without a key (num_domains, fault_plan) keeps its default.
  static std::string Serialize(const DiffConfig& config, const std::vector<DiffOp>& ops);
  static bool Parse(const std::string& text, DiffConfig* config, std::vector<DiffOp>* ops,
                    std::string* error);
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_DIFF_HARNESS_H_

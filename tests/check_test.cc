// Model-checker tests (src/check/): the fsio_model engine.
//
// Four layers:
//   * Clean sweeps — every protection mode explores its full bounded state
//     space with zero invariant violations, single- and multi-domain, and
//     the strict space reaches a fixpoint below the bound (the search is
//     genuinely exhaustive, not truncated).
//   * Checker power — each injected protocol bug is found exhaustively, the
//     counterexample shrinks to its known hand-derived minimum, replays, and
//     survives a serialize/parse/replay round-trip.
//   * Reduction soundness — partial-order reduction on vs off reaches the
//     same verdict for every (mode x bug) cell of the grid.
//   * Protocol tables — the shared ladders the model executes
//     (UnmapSemanticsFor, the RecoveryStep ladder, CapabilityCheckPasses)
//     keep the shapes the model's transition relation assumes.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/capability/capability_table.h"
#include "src/check/checker.h"
#include "src/check/model.h"
#include "src/driver/protection.h"
#include "src/faults/recovery_protocol.h"
#include "src/refmodel/shrink.h"
#include "tests/test_util.h"

namespace fsio {
namespace check {
namespace {

CheckConfig MakeConfig(ProtectionMode mode, InjectedBug bug, std::uint32_t domains,
                       std::uint32_t depth) {
  CheckConfig config;
  config.model.mode = mode;
  config.model.bug = bug;
  config.model.domains = domains;
  config.model.pages = 2;
  config.depth = depth;
  return config;
}

// ---------------------------------------------------------------------------
// Clean sweeps.

TEST(ModelCheckTest, EveryModeCleanAtDefaultBound) {
  for (ProtectionMode mode : kAllModes) {
    const CheckConfig config = MakeConfig(mode, InjectedBug::kNone, 1, 10);
    const CheckOutcome outcome = RunModelCheck(config);
    EXPECT_EQ(outcome.violation, ModelViolation::kNone)
        << ProtectionModeName(mode) << " violated "
        << ModelViolationName(outcome.violation);
    EXPECT_TRUE(outcome.trace.empty());
    EXPECT_GT(outcome.stats.states, 1u) << ProtectionModeName(mode);
  }
}

TEST(ModelCheckTest, EveryModeCleanWithTwoDomains) {
  for (ProtectionMode mode : kAllModes) {
    const CheckConfig config = MakeConfig(mode, InjectedBug::kNone, 2, 8);
    const CheckOutcome outcome = RunModelCheck(config);
    EXPECT_EQ(outcome.violation, ModelViolation::kNone)
        << ProtectionModeName(mode) << " violated "
        << ModelViolationName(outcome.violation);
  }
}

TEST(ModelCheckTest, StrictStateSpaceReachesFixpoint) {
  // With a generous bound the strict single-domain space closes: the search
  // runs out of new states, it is not cut off by the depth bound.
  CheckConfig config = MakeConfig(ProtectionMode::kStrict, InjectedBug::kNone, 1, 64);
  config.por = false;
  const CheckOutcome outcome = RunModelCheck(config);
  EXPECT_EQ(outcome.violation, ModelViolation::kNone);
  EXPECT_FALSE(outcome.stats.depth_bound_hit);
  EXPECT_LT(outcome.stats.depth_reached, 64u);
}

TEST(ModelCheckTest, PartialOrderReductionPrunesWork) {
  CheckConfig with = MakeConfig(ProtectionMode::kStrict, InjectedBug::kNone, 1, 12);
  CheckConfig without = with;
  without.por = false;
  const CheckOutcome reduced = RunModelCheck(with);
  const CheckOutcome full = RunModelCheck(without);
  EXPECT_EQ(reduced.violation, ModelViolation::kNone);
  EXPECT_EQ(full.violation, ModelViolation::kNone);
  EXPECT_GT(reduced.stats.por_pruned, 0u);
  EXPECT_LE(reduced.stats.transitions, full.stats.transitions);
}

// ---------------------------------------------------------------------------
// Checker power: every injected bug found, shrunk to its known minimum,
// replayed, and round-tripped through the trace format.

void ExpectBugCaught(const CheckConfig& config, ModelViolation expect_kind,
                     std::size_t expect_min_steps) {
  const CheckOutcome outcome = RunModelCheck(config);
  ASSERT_EQ(outcome.violation, expect_kind)
      << ProtectionModeName(config.model.mode) << " found "
      << ModelViolationName(outcome.violation);
  ASSERT_FALSE(outcome.trace.empty());

  // The BFS trace replays to the same verdict.
  const ReplayOutcome replay = ReplayTrace(config.model, outcome.trace);
  ASSERT_EQ(replay.violation, expect_kind);

  // Shrinking reaches the hand-derived minimal interleaving length.
  TraceRepro parsed;
  const auto cx = ShrinkCounterexample(TraceChecker(config.model, expect_kind, &parsed),
                                       outcome.trace, replay.fail_index, replay, std::nullopt, "");
  EXPECT_EQ(cx.shrunk.result.violation, expect_kind);
  EXPECT_LE(cx.shrunk.ops.size(), expect_min_steps)
      << "counterexample did not shrink to the known minimum";

  // The written trace parses back to the same run and reproduces the
  // violation.
  EXPECT_EQ(cx.replay, ReplayVerdict::kReproduced);
  EXPECT_EQ(parsed.config.mode, config.model.mode);
  EXPECT_EQ(parsed.config.bug, config.model.bug);
  EXPECT_EQ(parsed.violation, expect_kind);
  ASSERT_EQ(parsed.steps.size(), cx.shrunk.ops.size());
  EXPECT_EQ(ReplayTrace(parsed.config, parsed.steps).violation, expect_kind);
}

TEST(ModelCheckPowerTest, SkipInvalidationCaughtInEverySyncMode) {
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    ExpectBugCaught(MakeConfig(mode, InjectedBug::kSkipInvalidation, 1, 10),
                    ModelViolation::kDmaToReclaimedFrame, 6);
  }
}

TEST(ModelCheckPowerTest, UseAfterUnmapCaught) {
  ExpectBugCaught(MakeConfig(ProtectionMode::kStrict, InjectedBug::kUseAfterUnmap, 1, 10),
                  ModelViolation::kDmaToReclaimedFrame, 5);
}

TEST(ModelCheckPowerTest, EarlyReclaimCaught) {
  ExpectBugCaught(MakeConfig(ProtectionMode::kStrict, InjectedBug::kEarlyReclaim, 1, 10),
                  ModelViolation::kDmaToReclaimedFrame, 5);
}

TEST(ModelCheckPowerTest, UntaggedIotlbCaughtAcrossDomains) {
  ExpectBugCaught(MakeConfig(ProtectionMode::kStrict, InjectedBug::kUntaggedIotlb, 2, 8),
                  ModelViolation::kCrossDomainHit, 4);
}

TEST(ModelCheckPowerTest, SkipCapabilityCheckCaught) {
  ExpectBugCaught(
      MakeConfig(ProtectionMode::kCapability, InjectedBug::kSkipCapabilityCheck, 1, 10),
      ModelViolation::kDmaAfterRevoke, 3);
}

// ---------------------------------------------------------------------------
// Reduction soundness: POR on vs off agrees on the verdict over the whole
// (mode x bug) grid — clean cells stay clean, buggy cells find the same
// violation kind.

TEST(ModelCheckPorTest, VerdictMatchesFullSearchAcrossGrid) {
  static constexpr InjectedBug kBugs[] = {
      InjectedBug::kNone,          InjectedBug::kUseAfterUnmap,
      InjectedBug::kSkipInvalidation, InjectedBug::kEarlyReclaim,
      InjectedBug::kUntaggedIotlb, InjectedBug::kSkipCapabilityCheck,
  };
  for (ProtectionMode mode : kAllModes) {
    for (InjectedBug bug : kBugs) {
      if (bug != InjectedBug::kNone && !BugApplies(bug, mode)) {
        continue;
      }
      const std::uint32_t domains = bug == InjectedBug::kUntaggedIotlb ? 2 : 1;
      CheckConfig reduced = MakeConfig(mode, bug, domains, 8);
      CheckConfig full = reduced;
      full.por = false;
      const CheckOutcome a = RunModelCheck(reduced);
      const CheckOutcome b = RunModelCheck(full);
      EXPECT_EQ(a.violation, b.violation)
          << ProtectionModeName(mode) << " x bug " << static_cast<int>(bug)
          << ": por=" << ModelViolationName(a.violation)
          << " full=" << ModelViolationName(b.violation);
    }
  }
}

// ---------------------------------------------------------------------------
// Replay semantics and the trace format.

TEST(ModelReplayTest, DisabledStepsAreNoOps) {
  CheckModelConfig config;
  config.mode = ProtectionMode::kStrict;
  // unmap_begin on an unmapped slot and a walk with nothing translated are
  // both disabled; only the map applies. That no-op property is what makes
  // arbitrary subsequences of a trace executable for the shrinker.
  const std::vector<ModelStep> steps = {
      {StepKind::kUnmapBegin, 0, 0, 0},
      {StepKind::kDmaWalk, 0, 1, 0},
      {StepKind::kMap, 0, 0, 0},
  };
  const ReplayOutcome outcome = ReplayTrace(config, steps);
  EXPECT_EQ(outcome.violation, ModelViolation::kNone);
  EXPECT_EQ(outcome.steps_applied, 1u);
}

TEST(ModelTraceFormatTest, SerializeParseRoundTrip) {
  CheckModelConfig config;
  config.mode = ProtectionMode::kFastSafe;
  config.bug = InjectedBug::kSkipInvalidation;
  config.domains = 2;
  config.pages = 3;
  const std::vector<ModelStep> steps = {
      {StepKind::kMap, 0, 2, 0},
      {StepKind::kDmaWalk, 0, 2, 0},
      {StepKind::kDmaHit, 1, 2, 0},
  };
  const std::string text =
      SerializeTrace(config, ModelViolation::kCrossDomainHit, steps);
  CheckModelConfig parsed;
  ModelViolation kind = ModelViolation::kNone;
  std::vector<ModelStep> parsed_steps;
  std::string error;
  ASSERT_TRUE(ParseTrace(text, &parsed, &kind, &parsed_steps, &error)) << error;
  EXPECT_EQ(parsed.mode, config.mode);
  EXPECT_EQ(parsed.bug, config.bug);
  EXPECT_EQ(parsed.domains, config.domains);
  EXPECT_EQ(parsed.pages, config.pages);
  EXPECT_EQ(kind, ModelViolation::kCrossDomainHit);
  ASSERT_EQ(parsed_steps.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(parsed_steps[i], steps[i]) << "step " << i;
  }
}

TEST(ModelTraceFormatTest, RejectsMalformedInput) {
  CheckModelConfig config;
  ModelViolation kind = ModelViolation::kNone;
  std::vector<ModelStep> steps;
  std::string error;
  EXPECT_FALSE(ParseTrace("", &config, &kind, &steps, &error));
  EXPECT_FALSE(ParseTrace("bogus header\n", &config, &kind, &steps, &error));
  EXPECT_FALSE(ParseTrace("fsio-model-trace v1\nmode warp-speed\nsteps 0\nend\n",
                          &config, &kind, &steps, &error));
  EXPECT_FALSE(ParseTrace(  // step count mismatch
      "fsio-model-trace v1\nmode strict\nsteps 2\nstep map 0 0 0\nend\n",
      &config, &kind, &steps, &error));
  EXPECT_FALSE(ParseTrace(  // missing end marker
      "fsio-model-trace v1\nmode strict\nsteps 0\n", &config, &kind, &steps, &error));
  EXPECT_FALSE(ParseTrace(  // domain out of range for the config
      "fsio-model-trace v1\nmode strict\ndomains 1\nsteps 1\nstep map 2 0 0\nend\n",
      &config, &kind, &steps, &error));
  EXPECT_EQ(error, "step operand out of range for the configuration");
}

// Damaged traces an earlier reader replayed as valid ones: trailing words,
// numbers with trailing junk, extra step operands, and a key given twice.
TEST(ModelTraceFormatTest, RejectsDamagedTraces) {
  const std::string valid =
      "fsio-model-trace v1\nmode fast-safe\nbug skip-invalidation\ndomains 1\npages 2\n"
      "violation dma_to_reclaimed_frame\nsteps 6\nstep map 0 0 0\nstep dma_walk 0 0 0\n"
      "step unmap_begin 0 0 0\nstep invalidate_complete 0 0 0\nstep reclaim 0 0 0\n"
      "step dma_hit 0 0 0\nend\n";
  CheckModelConfig config;
  ModelViolation kind = ModelViolation::kNone;
  std::vector<ModelStep> steps;
  std::string error;
  ASSERT_TRUE(ParseTrace(valid, &config, &kind, &steps, &error)) << error;
  struct Case {
    std::string from;
    std::string to;
    std::string want;  // the error's start
  };
  const Case cases[] = {
      {"mode fast-safe\n", "mode strict junk\n", "line 2: want 'key value'"},
      {"domains 1\n", "domains 1x\n", "line 4: --domains: '1x' is not"},
      {"steps 6\n", "steps 6abc\n", "line 7: --steps: '6abc' is not"},
      {"step map 0 0 0\n", "step map 0 0 0 99 extra\n", "line 8: want 4 fields, got 6"},
      {"pages 2\n", "pages 2\npages 1\n", "line 6: repeated key 'pages'"},
  };
  for (const Case& c : cases) {
    std::string text = valid;
    text.replace(text.find(c.from), c.from.size(), c.to);
    EXPECT_FALSE(ParseTrace(text, &config, &kind, &steps, &error)) << text;
    EXPECT_EQ(error.substr(0, c.want.size()), c.want) << text;
  }
}

// ---------------------------------------------------------------------------
// The shared protocol tables the model's transition relation assumes.

TEST(ProtocolTableTest, UnmapSemanticsShapes) {
  EXPECT_EQ(UnmapSemanticsFor(ProtectionMode::kOff), UnmapSemantics::kNoProtection);
  EXPECT_EQ(UnmapSemanticsFor(ProtectionMode::kStrict), UnmapSemantics::kSyncInvalidate);
  EXPECT_EQ(UnmapSemanticsFor(ProtectionMode::kDeferred),
            UnmapSemantics::kDeferredInvalidate);
  EXPECT_EQ(UnmapSemanticsFor(ProtectionMode::kHugepagePersistent),
            UnmapSemantics::kReleaseOnly);
  EXPECT_EQ(UnmapSemanticsFor(ProtectionMode::kCapability),
            UnmapSemantics::kRevokeCapability);
  for (ProtectionMode mode : test::kStrictlySafeTearingModes) {
    EXPECT_EQ(UnmapSemanticsFor(mode), UnmapSemantics::kSyncInvalidate)
        << ProtectionModeName(mode);
  }
}

TEST(ProtocolTableTest, ModePredicatesMatchExpectedTable) {
  struct Row {
    ProtectionMode mode;
    bool strictly_safe;
    bool uses_iommu;
    bool contiguous;
    bool preserves;
  };
  constexpr Row kExpected[] = {
      {ProtectionMode::kOff, false, false, false, false},
      {ProtectionMode::kStrict, true, true, false, false},
      {ProtectionMode::kDeferred, false, true, false, false},
      {ProtectionMode::kStrictPreserve, true, true, false, true},
      {ProtectionMode::kStrictContig, true, true, true, false},
      {ProtectionMode::kFastSafe, true, true, true, true},
      {ProtectionMode::kHugepagePersistent, false, true, false, false},
      {ProtectionMode::kCapability, true, false, false, false},
  };
  static_assert(std::size(kExpected) == kAllModes.size());
  for (const Row& row : kExpected) {
    SCOPED_TRACE(ProtectionModeName(row.mode));
    EXPECT_EQ(IsStrictlySafe(row.mode), row.strictly_safe);
    EXPECT_EQ(UsesIommu(row.mode), row.uses_iommu);
    EXPECT_EQ(UsesContiguousIovas(row.mode), row.contiguous);
    EXPECT_EQ(PreservesPtCaches(row.mode), row.preserves);
  }
}

TEST(ProtocolTableTest, RecoveryLadderOrderAndGating) {
  RecoveryStep step = RecoveryStep::kIdle;
  step = NextRecoveryStep(step);
  EXPECT_EQ(step, RecoveryStep::kQuiesceDevice);
  step = NextRecoveryStep(step);
  EXPECT_EQ(step, RecoveryStep::kDrainInflight);
  step = NextRecoveryStep(step);
  EXPECT_EQ(step, RecoveryStep::kReclaimFrames);
  step = NextRecoveryStep(step);
  EXPECT_EQ(step, RecoveryStep::kInvalidateCaches);
  step = NextRecoveryStep(step);
  EXPECT_EQ(step, RecoveryStep::kDone);
  EXPECT_EQ(NextRecoveryStep(RecoveryStep::kDone), RecoveryStep::kDone);

  // New device accesses are fenced for the entire recovery window.
  EXPECT_TRUE(RecoveryAllowsNewDeviceAccess(RecoveryStep::kIdle));
  EXPECT_TRUE(RecoveryAllowsNewDeviceAccess(RecoveryStep::kDone));
  EXPECT_FALSE(RecoveryAllowsNewDeviceAccess(RecoveryStep::kQuiesceDevice));
  EXPECT_FALSE(RecoveryAllowsNewDeviceAccess(RecoveryStep::kReclaimFrames));
  // In-flight accesses drain through the drain rung but never past it.
  EXPECT_TRUE(RecoveryAllowsInflightAccess(RecoveryStep::kDrainInflight));
  EXPECT_FALSE(RecoveryAllowsInflightAccess(RecoveryStep::kReclaimFrames));
}

TEST(ProtocolTableTest, CapabilityAdmissionRule) {
  EXPECT_TRUE(CapabilityCheckPasses(true, 7, 7));
  EXPECT_FALSE(CapabilityCheckPasses(false, 7, 7));   // revoked slot
  EXPECT_FALSE(CapabilityCheckPasses(true, 8, 7));    // stale handle epoch
  EXPECT_FALSE(CapabilityCheckPasses(false, 8, 7));
}

}  // namespace
}  // namespace check
}  // namespace fsio

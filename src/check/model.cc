#include "src/check/model.h"

#include <algorithm>

namespace fsio {
namespace check {

namespace {

bool UsesIommuModel(const CheckModelConfig& config) { return UsesIommu(config.mode); }

// The device initiates DMA only to pages the driver handed it at some point:
// a live translation, or a cached entry it installed earlier. Cooperative
// device, stale caches — the paper's threat model.
bool DeviceInitiates(const Slot& slot) { return slot.translated || slot.entry_present; }

// New device accesses for a domain are gated by the recovery ladder: the NIC
// keeps DMAing through a crash (nobody told it to stop) until the quiesce
// rung lands, and may not resume until the ladder completes.
bool DeviceMayIssue(const DomainState& d) {
  return RecoveryAllowsNewDeviceAccess(d.recovery);
}

bool DriverLive(const DomainState& d) {
  return !d.crashed && d.recovery == RecoveryStep::kIdle;
}

void ClearEntry(Slot* s) {
  s->entry_present = false;
  s->entry_current = false;
  s->entry_reclaimed = false;
}

const std::vector<std::vector<std::uint8_t>>& Permutations(std::uint32_t n) {
  static std::vector<std::vector<std::uint8_t>> cache[kMaxPages + 1];
  auto& perms = cache[n];
  if (perms.empty()) {
    std::vector<std::uint8_t> idx(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::uint8_t>(i);
    }
    do {
      perms.push_back(idx);
    } while (std::next_permutation(idx.begin(), idx.end()));
  }
  return perms;
}

}  // namespace

const char* MapStageName(MapStage stage) {
  switch (stage) {
    case MapStage::kUnmapped:
      return "unmapped";
    case MapStage::kMapped:
      return "mapped";
    case MapStage::kInvPending:
      return "inv_pending";
    case MapStage::kDeferredPending:
      return "deferred_pending";
    case MapStage::kQuiescing:
      return "quiescing";
    case MapStage::kReclaimReady:
      return "reclaim_ready";
  }
  return "?";
}

const char* StepKindName(StepKind kind) {
  switch (kind) {
    case StepKind::kMap:
      return "map";
    case StepKind::kUnmapBegin:
      return "unmap_begin";
    case StepKind::kInvalidateComplete:
      return "invalidate_complete";
    case StepKind::kDeferredFlush:
      return "deferred_flush";
    case StepKind::kQuiesceComplete:
      return "quiesce_complete";
    case StepKind::kReclaim:
      return "reclaim";
    case StepKind::kDmaWalk:
      return "dma_walk";
    case StepKind::kDmaHit:
      return "dma_hit";
    case StepKind::kDmaEvict:
      return "dma_evict";
    case StepKind::kCapDma:
      return "cap_dma";
    case StepKind::kDmaDirect:
      return "dma_direct";
    case StepKind::kCrash:
      return "crash";
    case StepKind::kRecoverStep:
      return "recover_step";
    case StepKind::kCount:
      break;
  }
  return "?";
}

const char* ModelViolationName(ModelViolation violation) {
  switch (violation) {
    case ModelViolation::kNone:
      return "none";
    case ModelViolation::kDmaToReclaimedFrame:
      return "dma_to_reclaimed_frame";
    case ModelViolation::kStaleDmaTranslation:
      return "stale_dma_translation";
    case ModelViolation::kCrossDomainHit:
      return "dma_cross_domain_hit";
    case ModelViolation::kDmaAfterRevoke:
      return "capability.dma_after_revoke";
  }
  return "?";
}

bool StepEnabled(const ModelState& state, const CheckModelConfig& config,
                 const ModelStep& step) {
  if (step.domain >= config.domains) {
    return false;
  }
  const DomainState& d = state.domains[step.domain];
  const bool domain_op = step.kind == StepKind::kDeferredFlush ||
                         step.kind == StepKind::kCrash ||
                         step.kind == StepKind::kRecoverStep;
  if (!domain_op && step.page >= config.pages) {
    return false;
  }
  if (domain_op && step.page != 0) {
    return false;
  }
  const Slot& s = d.slots[step.page];
  const UnmapSemantics sem = UnmapSemanticsFor(config.mode);
  switch (step.kind) {
    case StepKind::kMap:
      return DriverLive(d) && s.stage == MapStage::kUnmapped;
    case StepKind::kUnmapBegin:
      return DriverLive(d) && s.stage == MapStage::kMapped;
    case StepKind::kInvalidateComplete:
      return DriverLive(d) && s.stage == MapStage::kInvPending;
    case StepKind::kDeferredFlush: {
      if (!DriverLive(d) || sem != UnmapSemantics::kDeferredInvalidate) {
        return false;
      }
      for (std::uint32_t p = 0; p < config.pages; ++p) {
        if (d.slots[p].stage == MapStage::kDeferredPending) {
          return true;
        }
      }
      return false;
    }
    case StepKind::kQuiesceComplete:
      return DriverLive(d) && s.stage == MapStage::kQuiescing;
    case StepKind::kReclaim:
      if (!DriverLive(d)) {
        return false;
      }
      if (s.stage == MapStage::kReclaimReady) {
        return true;
      }
      // The early-reclaim bug frees the frame while the invalidation (or
      // flush, or quiesce) that should precede it is still pending.
      return config.bug == InjectedBug::kEarlyReclaim &&
             (s.stage == MapStage::kInvPending ||
              s.stage == MapStage::kDeferredPending ||
              s.stage == MapStage::kQuiescing);
    case StepKind::kDmaWalk:
      return UsesIommuModel(config) && DeviceMayIssue(d) && s.translated &&
             !s.entry_present;
    case StepKind::kDmaHit: {
      if (!UsesIommuModel(config) || !DeviceMayIssue(d) || !DeviceInitiates(s)) {
        return false;
      }
      if (step.aux >= config.domains) {
        return false;
      }
      // The lookup is by page index; a correctly tagged IOTLB only matches
      // the accessing domain's own entry. The untagged-IOTLB bug drops the
      // tag from the match, so any domain's entry for the page can serve.
      if (step.aux != step.domain && config.bug != InjectedBug::kUntaggedIotlb) {
        return false;
      }
      return state.domains[step.aux].slots[step.page].entry_present;
    }
    case StepKind::kDmaEvict:
      return UsesIommuModel(config) && s.entry_present;
    case StepKind::kCapDma:
      if (config.mode != ProtectionMode::kCapability || !DeviceMayIssue(d) ||
          !s.translated) {
        return false;
      }
      // CapabilityCheckPasses() with the single modeled grant generation:
      // the slot is live-with-matching-epoch exactly while it is mapped.
      // A failed check refuses the DMA before it starts, so the step only
      // exists when the access would actually proceed.
      return CapabilityCheckPasses(s.stage == MapStage::kMapped, 0, 0) ||
             config.bug == InjectedBug::kSkipCapabilityCheck;
    case StepKind::kDmaDirect:
      return config.mode == ProtectionMode::kOff && DeviceMayIssue(d) &&
             s.stage == MapStage::kMapped;
    case StepKind::kCrash:
      return !d.crashed && d.recovery == RecoveryStep::kIdle;
    case StepKind::kRecoverStep:
      return d.crashed;
    case StepKind::kCount:
      break;
  }
  return false;
}

StepOutcome ApplyStep(ModelState* state, const CheckModelConfig& config,
                      const ModelStep& step) {
  StepOutcome out;
  if (!StepEnabled(*state, config, step)) {
    return out;  // disabled steps replay as no-ops (shrinkable subsequences)
  }
  DomainState& d = state->domains[step.domain];
  Slot& s = d.slots[step.page];
  const UnmapSemantics sem = UnmapSemanticsFor(config.mode);
  out.changed = true;
  switch (step.kind) {
    case StepKind::kMap:
      if (sem == UnmapSemantics::kReleaseOnly && s.translated) {
        // Persistent-pool reacquire: same frame, same (still live)
        // translation; only ownership returns.
      } else {
        s.translated = true;
        s.frame_retired = false;  // a fresh frame backs the new mapping
        if (s.entry_present) {
          // Whatever the device cached belongs to the previous generation.
          s.entry_current = false;
        }
      }
      s.stage = MapStage::kMapped;
      s.armed = false;
      break;
    case StepKind::kUnmapBegin:
      switch (sem) {
        case UnmapSemantics::kNoProtection:
          s.stage = MapStage::kReclaimReady;
          s.translated = false;
          break;
        case UnmapSemantics::kSyncInvalidate:
          s.stage = MapStage::kInvPending;
          s.translated = false;
          if (s.entry_present) {
            s.entry_current = false;
          }
          break;
        case UnmapSemantics::kDeferredInvalidate:
          s.stage = MapStage::kDeferredPending;
          s.translated = false;
          if (s.entry_present) {
            s.entry_current = false;
          }
          break;
        case UnmapSemantics::kReleaseOnly:
          // Ownership release only: translation, entry and frame all stay.
          s.stage = MapStage::kUnmapped;
          break;
        case UnmapSemantics::kRevokeCapability:
          // Revoke retires the grant now (checks fail from here on); an
          // armed capability additionally drains in-flight descriptors.
          s.stage = s.armed ? MapStage::kQuiescing : MapStage::kReclaimReady;
          break;
      }
      if (config.bug == InjectedBug::kUseAfterUnmap &&
          sem != UnmapSemantics::kReleaseOnly &&
          sem != UnmapSemantics::kRevokeCapability) {
        // The driver claims the unmap but never tore the translation down.
        s.translated = true;
      }
      break;
    case StepKind::kInvalidateComplete:
      s.stage = MapStage::kReclaimReady;
      if (config.bug != InjectedBug::kSkipInvalidation) {
        ClearEntry(&s);
      }
      break;
    case StepKind::kDeferredFlush:
      for (std::uint32_t p = 0; p < config.pages; ++p) {
        Slot& sp = d.slots[p];
        if (sp.stage == MapStage::kDeferredPending) {
          sp.stage = MapStage::kReclaimReady;
          if (config.bug != InjectedBug::kSkipInvalidation) {
            ClearEntry(&sp);
          }
        }
      }
      break;
    case StepKind::kQuiesceComplete:
      s.stage = MapStage::kReclaimReady;
      s.armed = false;
      break;
    case StepKind::kReclaim:
      s.stage = MapStage::kUnmapped;
      s.frame_retired = true;
      if (s.entry_present) {
        s.entry_current = false;
        s.entry_reclaimed = true;
      }
      break;
    case StepKind::kDmaWalk:
      // The walk itself lands an access through the freshly resolved
      // translation, then caches it.
      s.entry_present = true;
      s.entry_current = !s.frame_retired;
      s.entry_reclaimed = s.frame_retired;
      if (s.frame_retired) {
        out.violation = ModelViolation::kDmaToReclaimedFrame;
      }
      break;
    case StepKind::kDmaHit: {
      const Slot& entry = state->domains[step.aux].slots[step.page];
      out.changed = false;  // a hit reads the cache, it does not modify it
      if (step.aux != step.domain) {
        out.violation = ModelViolation::kCrossDomainHit;
      } else if (entry.entry_reclaimed) {
        // The frame behind the entry went back to the allocator. If the
        // page was since remapped, the allocator's reuse means the stale
        // entry aliases the NEW mapping's memory.
        out.violation = s.stage == MapStage::kMapped
                            ? ModelViolation::kStaleDmaTranslation
                            : ModelViolation::kDmaToReclaimedFrame;
      } else if (!entry.entry_current && s.stage == MapStage::kMapped) {
        out.violation = ModelViolation::kStaleDmaTranslation;
      }
      break;
    }
    case StepKind::kDmaEvict:
      ClearEntry(&s);
      break;
    case StepKind::kCapDma:
      if (s.stage == MapStage::kMapped) {
        // A passing check arms the capability: its revoke will quiesce.
        out.changed = !s.armed;
        s.armed = true;
      } else {
        // Only reachable with the skip-capability-check bug: the device
        // ignored the failed check and DMAed anyway.
        out.changed = false;
        out.violation = ModelViolation::kDmaAfterRevoke;
      }
      break;
    case StepKind::kDmaDirect:
      out.changed = false;  // legal passthrough access to an owned frame
      break;
    case StepKind::kCrash:
      d.crashed = true;
      break;
    case StepKind::kRecoverStep: {
      const RecoveryStep next = NextRecoveryStep(d.recovery);
      if (next == RecoveryStep::kReclaimFrames) {
        // Every frame the dead stack held goes back to the pool. Safe only
        // because the two quiesce/drain rungs already executed.
        for (std::uint32_t p = 0; p < config.pages; ++p) {
          Slot& sp = d.slots[p];
          const bool had_frame = sp.translated || sp.stage != MapStage::kUnmapped;
          sp.stage = MapStage::kUnmapped;
          sp.translated = false;
          sp.armed = false;
          if (had_frame) {
            sp.frame_retired = true;
            if (sp.entry_present) {
              sp.entry_current = false;
              sp.entry_reclaimed = true;
            }
          }
        }
      } else if (next == RecoveryStep::kInvalidateCaches) {
        // Domain-selective flush of everything the shared IOMMU cached for
        // the dead stack, before the rebuilt driver can re-use IOVAs.
        for (std::uint32_t p = 0; p < config.pages; ++p) {
          ClearEntry(&d.slots[p]);
        }
      }
      if (next == RecoveryStep::kDone) {
        d.recovery = RecoveryStep::kIdle;
        d.crashed = false;
      } else {
        d.recovery = next;
      }
      break;
    }
    case StepKind::kCount:
      out.changed = false;
      break;
  }
  return out;
}

void EnumerateSteps(const ModelState& state, const CheckModelConfig& config,
                    std::vector<ModelStep>* out) {
  auto add = [&](StepKind kind, std::uint8_t domain, std::uint8_t page,
                 std::uint8_t aux) {
    const ModelStep step{kind, domain, page, aux};
    if (StepEnabled(state, config, step)) {
      out->push_back(step);
    }
  };
  for (std::uint8_t d = 0; d < config.domains; ++d) {
    add(StepKind::kCrash, d, 0, 0);
    add(StepKind::kRecoverStep, d, 0, 0);
    add(StepKind::kDeferredFlush, d, 0, 0);
    for (std::uint8_t p = 0; p < config.pages; ++p) {
      add(StepKind::kMap, d, p, 0);
      add(StepKind::kUnmapBegin, d, p, 0);
      add(StepKind::kInvalidateComplete, d, p, 0);
      add(StepKind::kQuiesceComplete, d, p, 0);
      add(StepKind::kReclaim, d, p, 0);
      add(StepKind::kDmaWalk, d, p, 0);
      add(StepKind::kDmaEvict, d, p, 0);
      add(StepKind::kDmaDirect, d, p, 0);
      add(StepKind::kCapDma, d, p, 0);
      for (std::uint8_t od = 0; od < config.domains; ++od) {
        add(StepKind::kDmaHit, d, p, od);
      }
    }
  }
}

std::string EncodeState(const ModelState& state, const CheckModelConfig& config) {
  std::string out;
  out.reserve(config.domains * (1 + 2 * config.pages));
  for (std::uint32_t d = 0; d < config.domains; ++d) {
    const DomainState& dom = state.domains[d];
    out.push_back(static_cast<char>((dom.crashed ? 1 : 0) |
                                    (static_cast<int>(dom.recovery) << 1)));
    for (std::uint32_t p = 0; p < config.pages; ++p) {
      const Slot& s = dom.slots[p];
      out.push_back(static_cast<char>(static_cast<int>(s.stage) |
                                      (s.translated ? 1 << 3 : 0) |
                                      (s.frame_retired ? 1 << 4 : 0) |
                                      (s.armed ? 1 << 5 : 0)));
      out.push_back(static_cast<char>((s.entry_present ? 1 : 0) |
                                      (s.entry_current ? 1 << 1 : 0) |
                                      (s.entry_reclaimed ? 1 << 2 : 0)));
    }
  }
  return out;
}

std::string CanonicalEncodeState(const ModelState& state, const CheckModelConfig& config) {
  const auto& page_perms = Permutations(config.pages);
  const auto& domain_perms = Permutations(config.domains);
  std::string best;
  ModelState permuted;
  for (const auto& dp : domain_perms) {
    for (const auto& pp : page_perms) {
      for (std::uint32_t d = 0; d < config.domains; ++d) {
        const DomainState& src = state.domains[dp[d]];
        DomainState& dst = permuted.domains[d];
        dst.crashed = src.crashed;
        dst.recovery = src.recovery;
        for (std::uint32_t p = 0; p < config.pages; ++p) {
          dst.slots[p] = src.slots[pp[p]];
        }
      }
      std::string enc = EncodeState(permuted, config);
      if (best.empty() || enc < best) {
        best = std::move(enc);
      }
    }
  }
  return best;
}

bool StepsIndependent(const CheckModelConfig& config, const ModelStep& a,
                      const ModelStep& b) {
  // Untagged lookups read other domains' slots at the same page index:
  // almost nothing commutes, so the reduction stands down entirely.
  if (config.bug == InjectedBug::kUntaggedIotlb) {
    return false;
  }
  auto is_global = [](const ModelStep& s) {
    return s.kind == StepKind::kDeferredFlush || s.kind == StepKind::kCrash ||
           s.kind == StepKind::kRecoverStep;
  };
  if (is_global(a) || is_global(b)) {
    return false;
  }
  // Device-access steps carry the safety verdicts. Declaring them dependent
  // on everything keeps them out of the reduction entirely — they are never
  // pruned and never license pruning — which sidesteps the classic POR
  // action-ignoring problem for exactly the steps whose execution IS the
  // property being checked. What remains prunable are driver-ladder steps on
  // distinct slots; every checked invariant in this model is confined to one
  // slot (cross-slot coupling exists only under the untagged-IOTLB bug,
  // handled above, and via the global flush/recovery steps, excluded above),
  // and the first-enumerated slot's steps can never be pruned (earlier steps
  // are same-slot or global, both dependent), so each single-slot scenario
  // is always fully explored modulo the symmetry reduction.
  auto is_device_access = [](const ModelStep& s) {
    return s.kind == StepKind::kDmaWalk || s.kind == StepKind::kDmaHit ||
           s.kind == StepKind::kCapDma || s.kind == StepKind::kDmaDirect;
  };
  if (is_device_access(a) || is_device_access(b)) {
    return false;
  }
  // Remaining slot-local steps on distinct slots commute: enabledness and
  // effects read/write only their own (domain, page) slot, plus domain flags
  // that only the (global) crash/recovery steps modify.
  return a.domain != b.domain || a.page != b.page;
}

}  // namespace check
}  // namespace fsio

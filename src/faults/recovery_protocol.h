// The DMA quiesce/recovery protocol as an explicit transition system.
//
// Host::Recover (src/host/host.cc) and TenantSystem::RecoverTenant
// (src/tenant/tenant_system.cc) both walk the same ordered ladder after a
// crash, and the bounded model checker (src/check/) interleaves the very
// same steps against concurrent device DMA to prove the ORDER is what makes
// recovery safe:
//
//   kQuiesceDevice   stop descriptor fetch; no new device accesses start.
//   kDrainInflight   accesses already validated/posted run to completion
//                    (frames are still live, so they land safely).
//   kReclaimFrames   every frame the dead stack handed out returns to the
//                    allocator. Safe ONLY because the device is quiesced —
//                    reclaiming before the drain completes would let an
//                    in-flight access land in reclaimed memory. Both paths
//                    then rebuild the driver stack with the one call
//                    ProtectionDomain::Rebuild (src/driver/).
//   kInvalidateCaches
//                    flush every translation the shared IOMMU cached for the
//                    dead stack (globally for a host, domain-selectively for
//                    a tenant). Must precede handing fresh mappings out:
//                    skipping it (the chaos harness's --break-recovery bug)
//                    leaves stale entries that alias once IOVAs are re-used.
//   kDone            the rebuilt stack may map again.
//
// Pure data + constexpr functions only: the enum is shared by the real
// recovery paths (which trace their progress step by step), the chaos
// harness, and the model checker's crash/recover actor.
#ifndef FASTSAFE_SRC_FAULTS_RECOVERY_PROTOCOL_H_
#define FASTSAFE_SRC_FAULTS_RECOVERY_PROTOCOL_H_

namespace fsio {

enum class RecoveryStep : int {
  kIdle = 0,          // not recovering (running or crashed-but-unrecovered)
  kQuiesceDevice,
  kDrainInflight,
  kReclaimFrames,
  kInvalidateCaches,
  kDone,
};

constexpr const char* RecoveryStepName(RecoveryStep step) {
  switch (step) {
    case RecoveryStep::kIdle:
      return "idle";
    case RecoveryStep::kQuiesceDevice:
      return "quiesce_device";
    case RecoveryStep::kDrainInflight:
      return "drain_inflight";
    case RecoveryStep::kReclaimFrames:
      return "reclaim_frames";
    case RecoveryStep::kInvalidateCaches:
      return "invalidate_caches";
    case RecoveryStep::kDone:
      return "done";
  }
  return "?";
}

// The protocol order. kIdle starts the ladder (recovery begins with the
// quiesce); kDone is absorbing.
constexpr RecoveryStep NextRecoveryStep(RecoveryStep step) {
  switch (step) {
    case RecoveryStep::kIdle:
      return RecoveryStep::kQuiesceDevice;
    case RecoveryStep::kQuiesceDevice:
      return RecoveryStep::kDrainInflight;
    case RecoveryStep::kDrainInflight:
      return RecoveryStep::kReclaimFrames;
    case RecoveryStep::kReclaimFrames:
      return RecoveryStep::kInvalidateCaches;
    case RecoveryStep::kInvalidateCaches:
    case RecoveryStep::kDone:
      return RecoveryStep::kDone;
  }
  return RecoveryStep::kDone;
}

// True when `a` must complete before `b` may start (strict protocol order).
constexpr bool RecoveryStepPrecedes(RecoveryStep a, RecoveryStep b) {
  return static_cast<int>(a) < static_cast<int>(b);
}

// The device may issue NEW accesses only outside the recovery window: once
// the quiesce starts, nothing new is allowed until the ladder completes.
constexpr bool RecoveryAllowsNewDeviceAccess(RecoveryStep step) {
  return step == RecoveryStep::kIdle || step == RecoveryStep::kDone;
}

// In-flight (already validated) accesses may still land through the drain —
// that is the drain's entire purpose — but never once frames start
// reclaiming.
constexpr bool RecoveryAllowsInflightAccess(RecoveryStep step) {
  return step == RecoveryStep::kIdle || step == RecoveryStep::kQuiesceDevice ||
         step == RecoveryStep::kDrainInflight;
}

// Compile-time proof that the ladder is ordered the way the comments claim.
static_assert(RecoveryStepPrecedes(RecoveryStep::kQuiesceDevice, RecoveryStep::kReclaimFrames),
              "reclaim is only safe after the device is quiesced");
static_assert(RecoveryStepPrecedes(RecoveryStep::kDrainInflight, RecoveryStep::kReclaimFrames),
              "reclaim is only safe after in-flight accesses drain");
static_assert(RecoveryStepPrecedes(RecoveryStep::kReclaimFrames,
                                   RecoveryStep::kInvalidateCaches),
              "the recovery invalidation covers everything reclaim freed");

}  // namespace fsio

#endif  // FASTSAFE_SRC_FAULTS_RECOVERY_PROTOCOL_H_

// Capability table: the protection state behind ProtectionMode::kCapability.
//
// CAPIO-style kernel bypass moves safety out of the IOMMU datapath entirely:
// the IOMMU stays in pass-through, and every DMA buffer the driver hands to
// the device carries an epoch-tagged capability. Grant installs one
// capability covering all of a buffer's pages; the device validates it when
// it fetches/enqueues a descriptor; Revoke retires the entry synchronously —
// quiescing in-flight descriptors that armed it — so a post-revoke check
// fails in the same op-window the revoke returns in. That is the strict
// safety property, bought with table lookups instead of walks and
// invalidations.
//
// Epoch tagging makes slot reuse safe: revoking a capability bumps its
// slot's epoch, so a stale CapabilityId (held by a device that missed the
// revocation) fails CheckHandle() even after the slot is re-granted to a
// fresh buffer.
//
// The cost model is parameterized exactly like the DMA API's walk and
// invalidation costs: grant/revoke are driver-CPU costs returned to the
// caller for charging, the per-lookup check cost is a device-side delay the
// NIC model applies at descriptor fetch.
#ifndef FASTSAFE_SRC_CAPABILITY_CAPABILITY_TABLE_H_
#define FASTSAFE_SRC_CAPABILITY_CAPABILITY_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mem/address.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"

namespace fsio {

struct CapabilityConfig {
  // Device-side lookup cost per capability check (the kCapability analogue
  // of an IOTLB hit / page-table walk).
  TimeNs check_ns = 40;
  bool operator==(const CapabilityConfig&) const = default;
};

// Epoch-tagged handle for one granted DMA buffer. slot 0 is never granted,
// so a default-constructed id is always stale.
struct CapabilityId {
  std::uint64_t slot = 0;
  std::uint64_t epoch = 0;
};

// The capability admission rule, extracted pure so the table implementation
// and the model checker's capability actor (src/check/) decide device access
// from the same predicate: a handle is honored iff its slot is live AND the
// epochs match — revocation bumps the slot epoch, so every handle minted
// before the revoke fails even after the slot is re-granted.
constexpr bool CapabilityCheckPasses(bool slot_live, std::uint64_t slot_epoch,
                                     std::uint64_t handle_epoch) {
  return slot_live && slot_epoch == handle_epoch;
}

static_assert(CapabilityCheckPasses(true, 3, 3), "live entry, matching epoch: pass");
static_assert(!CapabilityCheckPasses(false, 3, 3), "revoked entry never passes");
static_assert(!CapabilityCheckPasses(true, 4, 3),
              "re-granted slot rejects handles minted before the revoke");

class CapabilityTable {
 public:
  // CPU cost model (per operation, on the granting/revoking core).
  static constexpr TimeNs kGrantCpuNs = 90;      // install one capability entry
  static constexpr TimeNs kGrantPageCpuNs = 4;   // per covered page (descriptor-list setup)
  static constexpr TimeNs kRevokeCpuNs = 110;    // retire the entry + doorbell the device
  // Bounded in-flight drain charged when revoking an ARMED capability (one
  // the device checked since grant): the revoke must wait out descriptors
  // already validated against the dying entry.
  static constexpr TimeNs kQuiesceCpuNs = 600;

  // `stats` may be null; when provided, grant/revoke/check/reject counters
  // are published under "capability.*".
  explicit CapabilityTable(const CapabilityConfig& config, StatsRegistry* stats = nullptr);

  struct GrantResult {
    CapabilityId id;
    TimeNs cpu_ns = 0;
  };
  // Grants one capability covering `page_addrs` (page-aligned addresses, not
  // necessarily contiguous — an Rx descriptor's scattered buffer pages).
  GrantResult Grant(const std::vector<Iova>& page_addrs);
  // Contiguous convenience (descriptor rings, huge buffers).
  GrantResult GrantRange(Iova base, std::uint64_t pages);

  struct RevokeResult {
    bool revoked = false;   // false: stale id / double revoke (idempotent no-op)
    bool quiesced = false;  // the capability was armed; in-flight drain charged
    TimeNs cpu_ns = 0;
  };
  // Retires `id` and drops all its pages. Revoking an already-revoked or
  // stale-epoch id is a counted no-op, so duplicate completions are safe.
  RevokeResult Revoke(CapabilityId id);

  struct CheckResult {
    bool granted = false;
    CapabilityId id;     // owning capability when granted
    TimeNs check_ns = 0;
  };
  // Device-side check of one page address (descriptor fetch / Tx enqueue).
  // A successful check arms the owning capability: its revoke will quiesce.
  CheckResult Check(Iova addr);
  // Validates a previously obtained handle; stale epochs fail even after the
  // slot was re-granted.
  bool CheckHandle(CapabilityId id) const;

  // The capability that currently covers `addr` (slot 0 if none). Does not
  // arm the entry — bookkeeping lookups, not device accesses.
  CapabilityId Lookup(Iova addr) const;

  std::uint64_t live_capabilities() const { return live_count_; }
  std::uint64_t granted_pages() const { return page_to_slot_.size(); }
  const CapabilityConfig& config() const { return config_; }

  // Structural invariant: every page index points at a live slot that lists
  // the page, and the live count matches the entries. Registered as the
  // "capability.table_consistency" invariant by the DMA API.
  bool CheckConsistency(std::string* detail) const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    bool live = false;
    bool armed = false;  // device checked it since grant
    std::vector<std::uint64_t> pages;
  };

  GrantResult GrantPages(std::vector<std::uint64_t> pages);
  std::uint64_t TakeSlot();

  CapabilityConfig config_;
  std::vector<Entry> entries_;  // slot-indexed; slot 0 reserved (invalid)
  std::vector<std::uint64_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint64_t> page_to_slot_;
  std::uint64_t live_count_ = 0;

  Counter* grants_ = nullptr;
  Counter* revokes_ = nullptr;
  Counter* double_revokes_ = nullptr;
  Counter* quiesces_ = nullptr;
  Counter* checks_ = nullptr;
  Counter* check_rejects_ = nullptr;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CAPABILITY_CAPABILITY_TABLE_H_

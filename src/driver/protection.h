// Memory-protection datapath modes.
//
// kOff / kStrict / kDeferred are the configurations modern Linux offers
// (§2.1). kStrictPreserve and kStrictContig are the paper's Figure 12
// ablations (Linux + idea A, Linux + idea B). kFastSafe combines all three
// F&S ideas: contiguous descriptor-sized IOVA allocation, PTcache
// preservation on unmap, and batched invalidations.
#ifndef FASTSAFE_SRC_DRIVER_PROTECTION_H_
#define FASTSAFE_SRC_DRIVER_PROTECTION_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fsio {

// Append new modes at the end, each with a row in kProtectionModes below
// (ModeTableCoversEnum names the last enumerator).
enum class ProtectionMode {
  kOff,             // IOMMU disabled: devices use physical addresses
  kStrict,          // Linux strict: per-IOVA unmap + full invalidation
  kDeferred,        // Linux lazy: invalidations deferred until a threshold
  kStrictPreserve,  // ablation A: strict + IOTLB-only invalidations
  kStrictContig,    // ablation B: contiguous IOVAs + batched (full) invalidations
  kFastSafe,        // F&S: contiguous + preserve + batched
  // Related-work baseline (Farshin et al. [16]): Rx buffers come from a
  // hugepage pool whose IOVA mappings are created once and never torn down.
  // Near-zero protection overhead, but the device retains access to the
  // buffers forever: a weaker safety property than strict.
  kHugepagePersistent,
  // Related-work alternative (CAPIO-style kernel bypass): the IOMMU stays in
  // pass-through (device addresses are physical), and protection moves to
  // epoch-tagged capability checks at descriptor-enqueue time. Map grants a
  // capability, unmap revokes it synchronously (quiescing in-flight
  // descriptors), so the strict safety property holds without any per-op
  // IOMMU walk or invalidation work.
  kCapability,
};

// The one protection-mode table, one row per enumerator in declaration
// order. Every tool, test and repro format spells modes through it.
struct ProtectionModeInfo {
  ProtectionMode mode;
  const char* name;        // display name: results tables, golden CSVs, bench manifest
  const char* token;       // canonical token: CLI flags and repro files
  const char* aliases[2];  // older spellings the tools still accept, or nullptr
};

inline constexpr ProtectionModeInfo kProtectionModes[] = {
    {ProtectionMode::kOff, "iommu-off", "off", {}},
    {ProtectionMode::kStrict, "linux-strict", "strict", {}},
    {ProtectionMode::kDeferred, "linux-deferred", "deferred", {}},
    {ProtectionMode::kStrictPreserve, "linux+A(preserve)", "strict-preserve",
     {"preserve", "linux+a"}},
    {ProtectionMode::kStrictContig, "linux+B(contig+batch)", "strict-contig",
     {"contig", "linux+b"}},
    {ProtectionMode::kFastSafe, "fast-and-safe", "fast-safe", {"fastsafe", "fs"}},
    {ProtectionMode::kHugepagePersistent, "hugepage-persistent", "hugepage-persistent",
     {"hugepersist"}},
    {ProtectionMode::kCapability, "capability", "capability", {"cap"}},
};

constexpr bool ModeTableCoversEnum() {
  for (std::size_t i = 0; i < std::size(kProtectionModes); ++i) {
    if (static_cast<std::size_t>(kProtectionModes[i].mode) != i) {
      return false;
    }
  }
  return std::size(kProtectionModes) == static_cast<std::size_t>(ProtectionMode::kCapability) + 1;
}
static_assert(ModeTableCoversEnum(),
              "kProtectionModes needs one row per ProtectionMode, in declaration order");

// Every protection mode, in declaration order.
inline constexpr auto kAllModes = [] {
  std::array<ProtectionMode, std::size(kProtectionModes)> modes{};
  for (std::size_t i = 0; i < modes.size(); ++i) {
    modes[i] = kProtectionModes[i].mode;
  }
  return modes;
}();

constexpr const char* ProtectionModeName(ProtectionMode mode) {
  return kProtectionModes[static_cast<std::size_t>(mode)].name;
}

constexpr const char* ModeToken(ProtectionMode mode) {
  return kProtectionModes[static_cast<std::size_t>(mode)].token;
}

// Every accepted token paired with its mode; each row's canonical token
// comes before its aliases.
inline std::vector<std::pair<std::string, ProtectionMode>> ModeTokenChoices() {
  std::vector<std::pair<std::string, ProtectionMode>> choices;
  for (const ProtectionModeInfo& row : kProtectionModes) {
    choices.emplace_back(row.token, row.mode);
    for (const char* alias : row.aliases) {
      if (alias != nullptr) {
        choices.emplace_back(alias, row.mode);
      }
    }
  }
  return choices;
}

// Resolves a canonical token or an alias.
inline bool ParseModeToken(std::string_view token, ProtectionMode* mode) {
  for (const auto& [candidate, value] : ModeTokenChoices()) {
    if (candidate == token) {
      *mode = value;
      return true;
    }
  }
  return false;
}

// What a driver unmap means for device visibility, per mode. The five
// classes below are exhaustive over ProtectionMode: adding a mode without
// classifying it fails the switch in UnmapSemanticsFor at compile time.
// DmaApi dispatches its map and unmap datapaths on this classification, and
// the reference model and the model checker (src/refmodel/, src/check/)
// execute the same table.
enum class UnmapSemantics : int {
  // kOff: there is no translation state to tear down; unmap only ends the
  // driver's ownership of the buffer.
  kNoProtection = 0,
  // Strictly-safe IOMMU modes (strict, strict-preserve, strict-contig,
  // fast-safe): the unmap call invalidates before returning, so visibility
  // is revoked in the same op-window. Batching/preservation change the COST
  // of that invalidation, never the contract.
  kSyncInvalidate,
  // Deferred: the unmap returns with the page still device-visible; a later
  // batched flush collapses visibility to the mapped set.
  kDeferredInvalidate,
  // Persistent pools: the mapping is never torn down — unmap is a pure
  // ownership release, and the device retains the translation forever.
  kReleaseOnly,
  // Capability kernel bypass: no IOMMU state exists; unmap synchronously
  // revokes the page's capability (quiescing armed descriptors), so the
  // device's next check refuses in the same op-window.
  kRevokeCapability,
};

constexpr UnmapSemantics UnmapSemanticsFor(ProtectionMode mode) {
  switch (mode) {
    case ProtectionMode::kOff:
      return UnmapSemantics::kNoProtection;
    case ProtectionMode::kStrict:
    case ProtectionMode::kStrictPreserve:
    case ProtectionMode::kStrictContig:
    case ProtectionMode::kFastSafe:
      return UnmapSemantics::kSyncInvalidate;
    case ProtectionMode::kDeferred:
      return UnmapSemantics::kDeferredInvalidate;
    case ProtectionMode::kHugepagePersistent:
      return UnmapSemantics::kReleaseOnly;
    case ProtectionMode::kCapability:
      return UnmapSemantics::kRevokeCapability;
  }
  return UnmapSemantics::kNoProtection;
}

// True if the mode guarantees the strict safety property: a device can never
// access memory through an IOVA after that IOVA's unmap returns. kCapability
// qualifies — revocation fails the device's capability check in the same
// op-window the unmap returns in — even though it does no IOMMU work.
constexpr bool IsStrictlySafe(ProtectionMode mode) {
  const UnmapSemantics semantics = UnmapSemanticsFor(mode);
  return semantics == UnmapSemantics::kSyncInvalidate ||
         semantics == UnmapSemantics::kRevokeCapability;
}

// True if the mode programs the IOMMU at all. kOff disables it outright;
// kCapability leaves it in pass-through and enforces safety at the NIC's
// descriptor-enqueue capability check instead.
constexpr bool UsesIommu(ProtectionMode mode) {
  const UnmapSemantics semantics = UnmapSemanticsFor(mode);
  return semantics != UnmapSemantics::kNoProtection &&
         semantics != UnmapSemantics::kRevokeCapability;
}

// True if IOVAs for a descriptor are allocated as one contiguous chunk.
constexpr bool UsesContiguousIovas(ProtectionMode mode) {
  return mode == ProtectionMode::kStrictContig || mode == ProtectionMode::kFastSafe;
}

// True if unmap-time invalidations preserve the IO page table caches.
constexpr bool PreservesPtCaches(ProtectionMode mode) {
  return mode == ProtectionMode::kStrictPreserve || mode == ProtectionMode::kFastSafe;
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_DRIVER_PROTECTION_H_

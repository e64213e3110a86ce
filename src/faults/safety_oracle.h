// End-to-end DMA safety oracle.
//
// The oracle is the ground truth for the paper's safety property: a device
// must never use an IOVA after the driver's unmap (or logical release) of
// that IOVA returns. The driver layer reports every map/unmap/release; the
// IOMMU reports every device-side translation together with evidence about
// which cached state served it. The oracle keeps a per-IOVA-page epoch map
// (epoch increments on every remap) and classifies each observed violation:
//
//   * kUseAfterUnmap        — a translation produced usable data for a page
//                             the driver no longer considers mapped (stale
//                             IOTLB entry in deferred mode, or a device
//                             touching a released persistent buffer).
//   * kStalePtcachePointer  — a PTcache entry pointed at a table page that
//                             is still live but no longer on the IOVA's walk
//                             path (replaced subtree).
//   * kReclaimedTableWalk   — a PTcache entry pointed at a reclaimed table
//                             page; hardware would walk freed memory.
//
//   * kDmaToReclaimedFrame  — a translation landed in a physical frame a
//                             crashed host reclaimed at recovery and has not
//                             re-handed out (cross-host crash invariant: no
//                             DMA lands in a crashed host's reclaimed pool).
//   * kStaleDmaTranslation  — a translation for a live page returned a
//                             physical frame that disagrees with the
//                             driver's current mapping (a stale IOTLB entry
//                             silently aliasing after a skipped recovery
//                             invalidation).
//   * kCrossDomainHit       — a device access resolved through a cache entry
//                             owned by a DIFFERENT protection domain (broken
//                             domain tagging: the multi-tenant isolation
//                             breach, graver than any single-domain class).
//
// Violations are recorded in observation order with deterministic content,
// so a trace from a seeded run is byte-stable (TraceString()).
#ifndef FASTSAFE_SRC_FAULTS_SAFETY_ORACLE_H_
#define FASTSAFE_SRC_FAULTS_SAFETY_ORACLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/mem/address.h"
#include "src/simcore/time.h"
#include "src/stats/counters.h"

namespace fsio {

enum class SafetyViolationKind : int {
  kUseAfterUnmap = 0,
  kStalePtcachePointer,
  kReclaimedTableWalk,
  kDmaToReclaimedFrame,
  kStaleDmaTranslation,
  kCrossDomainHit,
  kCount,
};

constexpr const char* SafetyViolationKindName(SafetyViolationKind kind) {
  switch (kind) {
    case SafetyViolationKind::kUseAfterUnmap:
      return "use_after_unmap";
    case SafetyViolationKind::kStalePtcachePointer:
      return "stale_ptcache_pointer";
    case SafetyViolationKind::kReclaimedTableWalk:
      return "reclaimed_table_walk";
    case SafetyViolationKind::kDmaToReclaimedFrame:
      return "dma_to_reclaimed_frame";
    case SafetyViolationKind::kStaleDmaTranslation:
      return "stale_dma_translation";
    case SafetyViolationKind::kCrossDomainHit:
      return "dma_cross_domain_hit";
    case SafetyViolationKind::kCount:
      break;
  }
  return "?";
}

struct SafetyViolation {
  TimeNs time = 0;
  Iova iova = 0;
  SafetyViolationKind kind = SafetyViolationKind::kCount;
  std::uint64_t epoch = 0;  // page's map epoch at observation time (0 = dead)
};

// Evidence about one device-side translation, supplied by the IOMMU.
struct DeviceAccess {
  bool translated = false;  // the device obtained usable data (no fault)
  bool iotlb_hit = false;
  bool stale_iotlb = false;               // IOTLB entry for an unmapped IOVA
  bool stale_ptcache_live = false;        // cached pointer to replaced subtree
  bool stale_ptcache_reclaimed = false;   // cached pointer to reclaimed page
  // The translation was served by a cached entry another protection domain
  // installed (only possible when cache tagging is broken): an isolation
  // breach, the gravest multi-tenant violation.
  bool cross_domain = false;
  // Physical target of the translation, when the IOMMU produced one. Enables
  // the frame-level cross-host checks (reclaimed-frame hit, silent stale
  // aliasing); phys_valid == false disables them for this access.
  PhysAddr phys = 0;
  bool phys_valid = false;
};

class SafetyOracle {
 public:
  // `stats` may be null; when provided, per-kind violation counters are
  // published as "oracle.violation.<kind>" plus "oracle.overlap_maps".
  explicit SafetyOracle(StatsRegistry* stats = nullptr);

  // Driver-side lifecycle events. `base` is page aligned; `pages` counts
  // 4 KB pages. Remapping a dead page bumps its epoch; mapping a page the
  // oracle still considers live is recorded as an overlap anomaly (checked
  // by the no-overlapping-live-ranges invariant).
  void OnMap(Iova base, std::uint64_t pages);
  void OnUnmap(Iova base, std::uint64_t pages);
  // Logical release without unmap (persistent pools): the page stays in the
  // IO page table but the driver has given up ownership, so device use after
  // this point is a safety violation.
  void OnRelease(Iova base, std::uint64_t pages) { OnUnmap(base, pages); }

  // Records the contiguous physical backing the driver installed for
  // `base`..`base + pages` (call right after the matching OnMap). Enables the
  // stale-translation check and exonerates the frames from the reclaimed
  // pool. Mappings whose IO-page-table entry intentionally diverges from the
  // driver's buffer (persistent-pool physical recycling) must NOT record a
  // backing.
  void OnMapBacking(Iova base, std::uint64_t pages, PhysAddr phys);

  // Host crash-recovery hooks. OnFramesReclaimed marks a physical range as
  // returned to a rebooted host's allocator: any DMA landing there before a
  // fresh mapping re-hands the frame out is a kDmaToReclaimedFrame
  // violation. ForceUnmapAll models "unmap all live descriptors" during
  // recovery: every live page goes dead (epoch preserved) and the count of
  // pages torn down is returned.
  void OnFramesReclaimed(PhysAddr base, std::uint64_t pages);
  std::uint64_t ForceUnmapAll();

  // Device-side observation, called by the IOMMU for every translation.
  void OnDeviceAccess(Iova iova, TimeNs now, const DeviceAccess& access);

  bool IsLive(Iova iova) const;

  std::uint64_t count(SafetyViolationKind kind) const {
    return counts_[static_cast<int>(kind)];
  }
  std::uint64_t total_violations() const { return violations_.size(); }
  const std::vector<SafetyViolation>& violations() const { return violations_; }
  // Pages the oracle currently considers live (driver-owned mappings).
  std::uint64_t live_pages() const { return live_pages_; }
  // OnMap calls that hit an already-live page.
  std::uint64_t overlap_maps() const { return overlap_maps_; }

  // Deterministic, byte-stable rendering of the violation trace.
  std::string TraceString() const;

 private:
  struct PageState {
    std::uint64_t epoch = 0;
    bool live = false;
    PhysAddr phys = 0;  // driver-intended backing (valid when phys_known)
    bool phys_known = false;
  };

  void Record(SafetyViolationKind kind, Iova iova, TimeNs now);

  std::unordered_map<std::uint64_t, PageState> pages_;  // page number -> state
  std::unordered_set<std::uint64_t> reclaimed_frames_;  // phys frame numbers
  std::vector<SafetyViolation> violations_;
  std::array<std::uint64_t, static_cast<int>(SafetyViolationKind::kCount)> counts_{};
  std::uint64_t live_pages_ = 0;
  std::uint64_t overlap_maps_ = 0;
  std::array<Counter*, static_cast<int>(SafetyViolationKind::kCount)> counters_{};
  Counter* overlap_counter_ = nullptr;
};

// The first `max_lines` lines of a TraceString(), plus a deterministic
// "  ... (N more)" marker for the rest: keeps reports readable under
// failure storms.
std::string ElideTrace(const std::string& trace, std::size_t max_lines);

}  // namespace fsio

#endif  // FASTSAFE_SRC_FAULTS_SAFETY_ORACLE_H_

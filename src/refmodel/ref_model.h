// Deliberately slow, obviously correct reference model of the
// IOMMU/page-table/IOVA stack, at the DMA-API contract level.
//
// The model is three flat containers:
//   * mapped_  — page -> phys: what the IO page table must contain.
//   * visible_ — page -> phys: translations the device may still obtain,
//                i.e. mapped_ plus the stale windows the mode's contract
//                permits (deferred mode's not-yet-flushed unmaps).
//   * owned_   — pages the driver currently considers DMA-active; device
//                use of a page outside this set is a safety violation even
//                when the translation itself is legal (persistent pools).
//
// The per-mode unmap semantics encode exactly when a stale translation may
// still be used: strictly safe modes invalidate synchronously inside the
// unmap (visible_ shrinks with mapped_), deferred mode leaves the page
// visible until the batched flush, and persistent pools never revoke
// visibility at all — they only drop ownership.
//
// CheckTranslation() is the differential oracle: given the real IOMMU's
// TranslationResult for an IOVA, it returns a divergence description when
// the outcome is not one the contract allows. It also predicts the safety
// oracle's use-after-unmap count so classification can be compared too.
#ifndef FASTSAFE_SRC_REFMODEL_REF_MODEL_H_
#define FASTSAFE_SRC_REFMODEL_REF_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "src/driver/protection.h"
#include "src/iommu/iommu.h"
#include "src/mem/address.h"

namespace fsio {

class RefModel {
 public:
  // The mode enters only through its UnmapSemantics (src/driver/protection.h),
  // the one per-mode table the driver and the model checker also execute.
  explicit RefModel(ProtectionMode mode) : semantics_(UnmapSemanticsFor(mode)) {}

  // Driver maps `page` to `phys` (map + immediate device visibility).
  void Map(std::uint64_t page, PhysAddr phys);
  // Persistent-pool hit: the driver re-takes ownership of a page whose
  // mapping never left the page table. Translation state is unchanged.
  void Reacquire(std::uint64_t page);
  // Driver unmap returns. Strictly safe modes also invalidate before
  // returning; deferred mode leaves the page device-visible until FlushAll.
  void Unmap(std::uint64_t page);
  // Persistent-pool release: ownership ends, the mapping stays.
  void Release(std::uint64_t page);
  // Deferred-mode batched flush: visibility collapses to the mapped set.
  void FlushAll();

  bool IsMapped(std::uint64_t page) const { return mapped_.contains(page); }
  bool IsVisible(std::uint64_t page) const { return visible_.contains(page); }
  bool IsOwned(std::uint64_t page) const { return owned_.contains(page); }
  std::uint64_t mapped_pages() const { return mapped_.size(); }
  std::uint64_t visible_pages() const { return visible_.size(); }

  // Judges one real translation against the contract. Returns a divergence
  // description, or nullopt when the outcome is legal. On legal stale use
  // of a non-owned page, bumps the predicted use-after-unmap count (the
  // safety oracle must record exactly these).
  std::optional<std::string> CheckTranslation(Iova iova, const TranslationResult& result);

  // Capability-mode contract (no IOMMU: the check at descriptor enqueue is
  // the only protection). A mapped page must pass the check; a page whose
  // capability was revoked must fail it in the same op-window the driver's
  // unmap returned — there is no deferred stale window in this mode. When a
  // buggy device proceeds despite a failed check (`allowed` true for an
  // unmapped page), the access lands in revoked memory and the safety oracle
  // must count a use-after-unmap.
  std::optional<std::string> CheckCapability(Iova iova, bool allowed);

  std::uint64_t predicted_use_after_unmap() const { return predicted_use_after_unmap_; }

 private:
  UnmapSemantics semantics_;
  std::map<std::uint64_t, PhysAddr> mapped_;
  std::map<std::uint64_t, PhysAddr> visible_;
  std::set<std::uint64_t> owned_;
  std::uint64_t predicted_use_after_unmap_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_REF_MODEL_H_

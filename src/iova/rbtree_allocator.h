// IOVA range allocator, modeled on Linux's alloc_iova().
//
// Linux allocates IOVAs "compactly from the top of the address space": a
// request takes the highest free gap that fits it at its alignment, and a
// free returns exactly the range that was allocated. Two ordered maps (the
// standard library's red-black trees) hold the state, keyed by start PFN:
// the free gaps and the allocated ranges, which together tile
// [0, limit_pfn) with no two free gaps touching. Alloc visits the gaps from
// the top down, so its cost grows with the number of gaps it skips; the
// per-core rcache in front of it (iova_allocator.h) keeps it nearly idle,
// and the *simulated* CPU cost of the slow path (the §2.1 trade-off) is
// charged there, whatever this structure costs the simulator. All
// operations work in page-frame-number (PFN) space.
#ifndef FASTSAFE_SRC_IOVA_RBTREE_ALLOCATOR_H_
#define FASTSAFE_SRC_IOVA_RBTREE_ALLOCATOR_H_

#include <cstdint>
#include <map>

#include "src/mem/address.h"

namespace fsio {

class RbTreeAllocator {
 public:
  static constexpr std::uint64_t kInvalidPfn = ~0ULL;

  // Allocations are placed below `limit_pfn` (exclusive).
  explicit RbTreeAllocator(std::uint64_t limit_pfn = kIovaSpaceSize >> kPageShift);
  RbTreeAllocator(const RbTreeAllocator&) = delete;
  RbTreeAllocator& operator=(const RbTreeAllocator&) = delete;

  // Allocates `pages` contiguous PFNs aligned to `align_pages` (power of
  // two, >= 1), preferring the highest free gap. Returns the first PFN, or
  // kInvalidPfn if no gap fits.
  std::uint64_t Alloc(std::uint64_t pages, std::uint64_t align_pages = 1);

  // Frees the range that starts at `start_pfn`. Returns false if no
  // allocated range starts there.
  bool Free(std::uint64_t start_pfn);

  // True if `pfn` lies inside any allocated range.
  bool Contains(std::uint64_t pfn) const;

  std::uint64_t allocated_ranges() const { return allocated_.size(); }
  std::uint64_t allocated_pages() const { return allocated_pages_; }
  std::uint64_t limit_pfn() const { return limit_pfn_; }

  // Verifies (for property tests) that the free gaps and allocated ranges
  // tile [0, limit_pfn) exactly, that no two free gaps touch, and that
  // allocated_pages() agrees with the ranges. Returns false on any violation.
  bool CheckInvariants() const;

 private:
  std::uint64_t limit_pfn_;
  std::map<std::uint64_t, std::uint64_t> free_;       // gap start -> end (exclusive)
  std::map<std::uint64_t, std::uint64_t> allocated_;  // range start -> end (exclusive)
  std::uint64_t allocated_pages_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_IOVA_RBTREE_ALLOCATOR_H_

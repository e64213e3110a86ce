#include "src/iova/rbtree_allocator.h"

#include <iterator>

namespace fsio {

RbTreeAllocator::RbTreeAllocator(std::uint64_t limit_pfn) : limit_pfn_(limit_pfn) {
  if (limit_pfn_ > 0) {
    free_.emplace(0, limit_pfn_);
  }
}

std::uint64_t RbTreeAllocator::Alloc(std::uint64_t pages, std::uint64_t align_pages) {
  if (pages == 0 || pages > limit_pfn_) {
    return kInvalidPfn;
  }
  const std::uint64_t align_mask = align_pages == 0 ? 0 : align_pages - 1;
  // Highest gap first, then downwards: each gap offers its topmost aligned
  // start, and the first gap where that start still lies inside wins.
  for (auto gap = free_.rbegin(); gap != free_.rend(); ++gap) {
    const auto [lo, hi] = *gap;
    if (hi - lo < pages) {
      continue;
    }
    const std::uint64_t start = (hi - pages) & ~align_mask;
    if (start < lo) {
      continue;
    }
    // Split the gap into what lies below and above the new range.
    auto it = std::prev(gap.base());
    if (lo < start) {
      it->second = start;
      ++it;
    } else {
      it = free_.erase(it);
    }
    if (start + pages < hi) {
      free_.emplace_hint(it, start + pages, hi);
    }
    allocated_.emplace(start, start + pages);
    allocated_pages_ += pages;
    return start;
  }
  return kInvalidPfn;
}

bool RbTreeAllocator::Free(std::uint64_t start_pfn) {
  const auto range = allocated_.find(start_pfn);
  if (range == allocated_.end()) {
    return false;
  }
  const std::uint64_t lo = range->first;
  std::uint64_t hi = range->second;
  allocated_pages_ -= hi - lo;
  allocated_.erase(range);
  // Merge with the free gaps that touch the range on either side.
  auto above = free_.lower_bound(hi);
  if (above != free_.end() && above->first == hi) {
    hi = above->second;
    above = free_.erase(above);
  }
  if (above != free_.begin()) {
    const auto below = std::prev(above);
    if (below->second == lo) {
      below->second = hi;
      return true;
    }
  }
  free_.emplace_hint(above, lo, hi);
  return true;
}

bool RbTreeAllocator::Contains(std::uint64_t pfn) const {
  const auto above = allocated_.upper_bound(pfn);
  return above != allocated_.begin() && pfn < std::prev(above)->second;
}

bool RbTreeAllocator::CheckInvariants() const {
  // Merge-walk both maps in address order.
  std::uint64_t pos = 0;
  std::uint64_t pages = 0;
  bool after_gap = false;
  auto gap = free_.begin();
  auto range = allocated_.begin();
  while (gap != free_.end() || range != allocated_.end()) {
    const bool is_gap =
        range == allocated_.end() || (gap != free_.end() && gap->first < range->first);
    const auto [lo, hi] = is_gap ? *gap++ : *range++;
    if (lo != pos || hi <= lo || (is_gap && after_gap)) {
      return false;
    }
    if (!is_gap) {
      pages += hi - lo;
    }
    after_gap = is_gap;
    pos = hi;
  }
  return pos == limit_pfn_ && pages == allocated_pages_;
}

}  // namespace fsio

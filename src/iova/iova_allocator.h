// IOVA allocator facade: per-core magazine caches over the top-down range
// allocator (rbtree_allocator.h).
//
// Mirrors the Linux IOVA "rcache" design described in the paper's §2.1:
// every core keeps two magazines (stacks) of recently freed IOVAs per size
// class, with a shared depot of full magazines behind them; only when all of
// these are empty (alloc) or full (free) does the allocator touch the global
// range allocator, which places each naturally aligned power-of-two request
// in the highest free gap that fits it. This gives O(1) common-case cost and
// high CPU efficiency — at the price of the IOVA locality degradation the
// paper measures in Figures 2e and 3e, which emerges here from LIFO
// recycling across the Rx and Tx datapaths.
#ifndef FASTSAFE_SRC_IOVA_IOVA_ALLOCATOR_H_
#define FASTSAFE_SRC_IOVA_IOVA_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/iova/rbtree_allocator.h"
#include "src/mem/address.h"
#include "src/stats/counters.h"

namespace fsio {

struct IovaAllocatorConfig {
  std::uint32_t num_cores = 8;
  bool enable_rcache = true;       // false = every op goes to the range allocator
  std::uint32_t magazine_size = 127;
  std::uint32_t depot_magazines = 32;  // per size class, shared by all cores
  std::uint32_t max_cached_order = 6;  // cache size classes up to 2^6 = 64 pages
  bool operator==(const IovaAllocatorConfig&) const = default;
};

class IovaAllocator {
 public:
  static constexpr Iova kInvalidIova = ~0ULL;

  IovaAllocator(const IovaAllocatorConfig& config, StatsRegistry* stats);

  // Allocates `pages` contiguous, naturally-aligned pages of IOVA space on
  // behalf of `core`. Sizes are rounded up to a power of two (as Linux's
  // alloc_iova_fast does for cacheability). Returns the IOVA byte address,
  // or kInvalidIova on exhaustion.
  Iova Alloc(std::uint32_t core, std::uint64_t pages);

  // Returns an IOVA previously obtained from Alloc with the same `pages`.
  void Free(std::uint32_t core, Iova iova, std::uint64_t pages);

  // Direct access to the range allocator (tests, working-set inspection).
  RbTreeAllocator& tree() { return tree_; }
  const RbTreeAllocator& tree() const { return tree_; }

  std::uint64_t live_allocations() const { return live_allocations_; }

  // Optional fault injection: kIovaExhaustion makes Alloc fail as if the
  // IOVA space (or the rcache path) were exhausted.
  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }

 private:
  struct Magazine {
    std::vector<std::uint64_t> pfns;  // stack of cached range-start PFNs
  };
  struct SizeClassCache {
    Magazine loaded;
    Magazine prev;
  };

  static std::uint32_t OrderFor(std::uint64_t pages);
  bool CacheableOrder(std::uint32_t order) const {
    return config_.enable_rcache && order <= config_.max_cached_order;
  }
  SizeClassCache& CacheFor(std::uint32_t core, std::uint32_t order);
  std::vector<Magazine>& DepotFor(std::uint32_t order) { return depot_[order]; }
  void FlushMagazineToTree(Magazine* mag);

  IovaAllocatorConfig config_;
  FaultInjector* fault_injector_ = nullptr;
  RbTreeAllocator tree_;
  // cores x (max_cached_order + 1) caches, core-major.
  std::vector<SizeClassCache> core_caches_;
  std::vector<std::vector<Magazine>> depot_;
  std::uint64_t live_allocations_ = 0;

  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* tree_allocs_;
  Counter* tree_frees_;
  Counter* depot_transfers_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_IOVA_IOVA_ALLOCATOR_H_

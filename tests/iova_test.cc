// Tests for the top-down IOVA range allocator (RbTreeAllocator) and the
// per-core magazine cache layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/iova/iova_allocator.h"
#include "src/iova/rbtree_allocator.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace {

TEST(RbTreeAllocatorTest, AllocatesTopDown) {
  RbTreeAllocator tree(1000);
  const std::uint64_t a = tree.Alloc(10);
  const std::uint64_t b = tree.Alloc(10);
  EXPECT_EQ(a, 990u);
  EXPECT_EQ(b, 980u);
  EXPECT_EQ(tree.allocated_pages(), 20u);
}

TEST(RbTreeAllocatorTest, RespectsAlignment) {
  RbTreeAllocator tree(1000);
  const std::uint64_t a = tree.Alloc(3, 8);
  EXPECT_EQ(a % 8, 0u);
  const std::uint64_t b = tree.Alloc(5, 16);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_LT(b, a);
}

TEST(RbTreeAllocatorTest, FreeMakesRangeReusable) {
  RbTreeAllocator tree(100);
  const std::uint64_t a = tree.Alloc(50);
  const std::uint64_t b = tree.Alloc(50);
  EXPECT_NE(a, RbTreeAllocator::kInvalidPfn);
  EXPECT_NE(b, RbTreeAllocator::kInvalidPfn);
  EXPECT_EQ(tree.Alloc(1), RbTreeAllocator::kInvalidPfn);  // space exhausted
  EXPECT_TRUE(tree.Free(a));
  const std::uint64_t c = tree.Alloc(50);
  EXPECT_EQ(c, a);
}

TEST(RbTreeAllocatorTest, FreeUnknownStartFails) {
  RbTreeAllocator tree(100);
  const std::uint64_t a = tree.Alloc(10);
  EXPECT_FALSE(tree.Free(a + 1));  // not a range start
  EXPECT_TRUE(tree.Free(a));
  EXPECT_FALSE(tree.Free(a));  // double free
}

TEST(RbTreeAllocatorTest, FillsGapsBetweenAllocations) {
  RbTreeAllocator tree(100);
  const std::uint64_t a = tree.Alloc(40);  // [60, 99]
  const std::uint64_t b = tree.Alloc(40);  // [20, 59]
  (void)b;
  EXPECT_TRUE(tree.Free(a));
  // A 30-page allocation fits in the freed top gap; top-down placement puts
  // it at the top of that gap.
  const std::uint64_t c = tree.Alloc(30);
  EXPECT_EQ(c, 70u);
}

TEST(RbTreeAllocatorTest, ContainsReportsMembership) {
  RbTreeAllocator tree(100);
  const std::uint64_t a = tree.Alloc(10);
  EXPECT_TRUE(tree.Contains(a));
  EXPECT_TRUE(tree.Contains(a + 9));
  EXPECT_FALSE(tree.Contains(a - 1));
}

TEST(RbTreeAllocatorTest, ZeroPagesFails) {
  RbTreeAllocator tree(100);
  EXPECT_EQ(tree.Alloc(0), RbTreeAllocator::kInvalidPfn);
}

TEST(RbTreeAllocatorTest, OversizeRequestFails) {
  RbTreeAllocator tree(100);
  EXPECT_EQ(tree.Alloc(101), RbTreeAllocator::kInvalidPfn);
}

TEST(RbTreeAllocatorTest, InvariantsHoldAfterManyOps) {
  RbTreeAllocator tree(1 << 20);
  Rng rng(77);
  std::vector<std::uint64_t> live;
  for (int i = 0; i < 5000; ++i) {
    if (live.empty() || rng.NextBool(0.6)) {
      const std::uint64_t start = tree.Alloc(1 + rng.NextBelow(64));
      if (start != RbTreeAllocator::kInvalidPfn) {
        live.push_back(start);
      }
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      EXPECT_TRUE(tree.Free(live[idx]));
      live[idx] = live.back();
      live.pop_back();
    }
    if (i % 500 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "at step " << i;
    }
  }
  ASSERT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.allocated_ranges(), live.size());
}

TEST(RbTreeAllocatorTest, FragmentationBlocksLargeAllocUntilNeighborsFree) {
  // Adversarial fragmentation: fill the space with 2-page ranges, free every
  // other one. Half the space is free, but no gap exceeds 2 pages — a 4-page
  // request must fail even though 32 pages are free in total.
  RbTreeAllocator tree(64);
  std::vector<std::uint64_t> ranges;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t start = tree.Alloc(2);
    ASSERT_NE(start, RbTreeAllocator::kInvalidPfn);
    ranges.push_back(start);
  }
  for (std::size_t i = 0; i < ranges.size(); i += 2) {
    ASSERT_TRUE(tree.Free(ranges[i]));
  }
  EXPECT_EQ(tree.allocated_pages(), 32u);
  EXPECT_EQ(tree.Alloc(4), RbTreeAllocator::kInvalidPfn);
  ASSERT_TRUE(tree.CheckInvariants());
  // Freeing one surviving neighbor merges two 2-page gaps into a 4-page gap.
  ASSERT_TRUE(tree.Free(ranges[1]));
  EXPECT_NE(tree.Alloc(4), RbTreeAllocator::kInvalidPfn);
  ASSERT_TRUE(tree.CheckInvariants());
}

TEST(RbTreeAllocatorTest, ReuseAfterFreeChurn) {
  // Freed starts must become immediately unknown to the tree (double-free
  // rejected, Contains false) and reusable by later allocations.
  RbTreeAllocator tree(1 << 16);
  Rng rng(4242);
  struct Range {
    std::uint64_t start;
    std::uint64_t pages;
  };
  std::vector<Range> live;
  for (int i = 0; i < 4000; ++i) {
    if (live.empty() || rng.NextBool(0.5)) {
      const std::uint64_t pages = 1 + rng.NextBelow(16);
      const std::uint64_t start = tree.Alloc(pages);
      if (start == RbTreeAllocator::kInvalidPfn) {
        continue;
      }
      EXPECT_TRUE(tree.Contains(start));
      live.push_back({start, pages});
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      const Range r = live[idx];
      ASSERT_TRUE(tree.Free(r.start));
      EXPECT_FALSE(tree.Free(r.start)) << "double free accepted at step " << i;
      EXPECT_FALSE(tree.Contains(r.start));
      live[idx] = live.back();
      live.pop_back();
    }
    if (i % 1000 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "at step " << i;
    }
  }
  // Drain: every remaining range frees exactly once, leaving an empty tree.
  for (const Range& r : live) {
    ASSERT_TRUE(tree.Free(r.start));
  }
  EXPECT_EQ(tree.allocated_ranges(), 0u);
  EXPECT_EQ(tree.allocated_pages(), 0u);
  ASSERT_TRUE(tree.CheckInvariants());
}

// Brute-force statement of the placement rule over a page bitmap: a request
// takes the highest start that is a multiple of its alignment and whose
// pages are all free.
class BitmapAllocator {
 public:
  explicit BitmapAllocator(std::uint64_t limit) : used_(limit, false) {}

  std::uint64_t Alloc(std::uint64_t pages, std::uint64_t align) {
    const std::uint64_t limit = used_.size();
    if (pages == 0 || pages > limit) {
      return RbTreeAllocator::kInvalidPfn;
    }
    std::vector<std::uint64_t> free_run(limit + 1, 0);  // free pages from i up
    for (std::uint64_t i = limit; i-- > 0;) {
      free_run[i] = used_[i] ? 0 : free_run[i + 1] + 1;
    }
    for (std::uint64_t start = (limit - pages) / align * align;; start -= align) {
      if (free_run[start] >= pages) {
        std::fill(used_.begin() + start, used_.begin() + start + pages, true);
        ranges_[start] = pages;
        used_pages_ += pages;
        return start;
      }
      if (start < align) {
        return RbTreeAllocator::kInvalidPfn;
      }
    }
  }

  bool Free(std::uint64_t start) {
    const auto it = ranges_.find(start);
    if (it == ranges_.end()) {
      return false;
    }
    std::fill(used_.begin() + start, used_.begin() + start + it->second, false);
    used_pages_ -= it->second;
    ranges_.erase(it);
    return true;
  }

  bool Contains(std::uint64_t pfn) const { return used_[pfn]; }
  std::uint64_t used_pages() const { return used_pages_; }
  std::uint64_t ranges() const { return ranges_.size(); }

 private:
  std::vector<bool> used_;
  std::map<std::uint64_t, std::uint64_t> ranges_;  // start -> pages
  std::uint64_t used_pages_ = 0;
};

TEST(RbTreeAllocatorTest, PlacementMatchesBitmapReference) {
  // Lockstep with the bitmap: every Alloc and Free result, Contains answer
  // and count must agree. Each workload churns, then allocates until the
  // space is exhausted, frees a random half and refills it.
  constexpr std::uint64_t kLimit = 2048;
  struct Request {
    std::uint64_t pages;
    std::uint64_t align;
  };
  using Shape = std::function<Request(Rng&)>;
  const std::vector<std::pair<const char*, Shape>> shapes = {
      {"unaligned sizes", [](Rng& r) { return Request{1 + r.NextBelow(64), 1}; }},
      {"power-of-two aligned sizes",
       [](Rng& r) {
         const std::uint64_t pages = 1ULL << r.NextBelow(7);
         return Request{pages, pages};
       }},
      {"mixed sizes and alignments",
       [](Rng& r) { return Request{1 + r.NextBelow(100), 1ULL << r.NextBelow(7)}; }},
  };
  for (const auto& [name, shape] : shapes) {
    SCOPED_TRACE(name);
    RbTreeAllocator tree(kLimit);
    BitmapAllocator ref(kLimit);
    Rng rng(2024);
    std::vector<std::uint64_t> live;
    int step = 0;
    auto check = [&](std::uint64_t touched) {
      ASSERT_EQ(tree.allocated_pages(), ref.used_pages()) << "step " << step;
      ASSERT_EQ(tree.allocated_ranges(), ref.ranges()) << "step " << step;
      const std::uint64_t probes[] = {touched == 0 ? 0 : touched - 1, touched,
                                      rng.NextBelow(kLimit), rng.NextBelow(kLimit)};
      for (std::uint64_t pfn : probes) {
        if (pfn < kLimit) {
          ASSERT_EQ(tree.Contains(pfn), ref.Contains(pfn)) << "pfn " << pfn << " step " << step;
        }
      }
    };
    auto alloc = [&](bool* placed) {
      const Request q = shape(rng);
      const std::uint64_t got = tree.Alloc(q.pages, q.align);
      ASSERT_EQ(got, ref.Alloc(q.pages, q.align))
          << "pages " << q.pages << " align " << q.align << " step " << step;
      *placed = got != RbTreeAllocator::kInvalidPfn;
      if (*placed) {
        live.push_back(got);
        check(got + q.pages);
      }
      ++step;
    };
    auto free_one = [&]() {
      const std::size_t idx = rng.NextBelow(live.size());
      const std::uint64_t start = live[idx];
      ASSERT_TRUE(tree.Free(start));
      ASSERT_TRUE(ref.Free(start));
      ASSERT_FALSE(tree.Free(start)) << "double free accepted at step " << step;
      live[idx] = live.back();
      live.pop_back();
      check(start);
      ++step;
    };
    bool placed = false;
    for (int i = 0; i < 3000; ++i) {
      if (live.empty() || rng.NextBool(0.6)) {
        ASSERT_NO_FATAL_FAILURE(alloc(&placed));
      } else {
        ASSERT_NO_FATAL_FAILURE(free_one());
      }
    }
    for (int round = 0; round < 2; ++round) {
      // A failed request may still leave room for a smaller one: stop only
      // after a run of failures.
      for (int misses = 0; misses < 64; misses = placed ? 0 : misses + 1) {
        ASSERT_NO_FATAL_FAILURE(alloc(&placed));
      }
      for (std::size_t n = live.size() / 2; n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(free_one());
      }
    }
    for (std::uint64_t pfn = 0; pfn < kLimit; ++pfn) {
      ASSERT_EQ(tree.Contains(pfn), ref.Contains(pfn)) << "pfn " << pfn;
    }
    ASSERT_TRUE(tree.CheckInvariants());
  }
}

TEST(IovaAllocatorTest, TreePathMatchesRbTreeReferenceUnderChurn) {
  // With the rcache disabled, every IovaAllocator op goes straight to its
  // range allocator — an identically-driven standalone RbTreeAllocator must
  // produce the same address at every step of a random workload. (This pins
  // the facade's size rounding and alignment, not the placement rule;
  // PlacementMatchesBitmapReference pins that.)
  StatsRegistry stats;
  IovaAllocatorConfig config;
  config.num_cores = 2;
  config.enable_rcache = false;
  IovaAllocator alloc(config, &stats);
  RbTreeAllocator ref;  // same default limit: kIovaSpaceSize >> kPageShift
  Rng rng(99);
  struct Live {
    Iova iova;
    std::uint64_t pages;
    std::uint32_t core;
  };
  std::vector<Live> live;
  for (int i = 0; i < 4000; ++i) {
    const std::uint32_t core = static_cast<std::uint32_t>(rng.NextBelow(2));
    if (live.empty() || rng.NextBool(0.55)) {
      const std::uint64_t pages = 1 + rng.NextBelow(100);
      std::uint64_t rounded = 1;
      while (rounded < pages) {
        rounded <<= 1;
      }
      const Iova iova = alloc.Alloc(core, pages);
      ASSERT_NE(iova, IovaAllocator::kInvalidIova);
      ASSERT_EQ(iova >> kPageShift, ref.Alloc(rounded, rounded)) << "step " << i;
      live.push_back({iova, pages, core});
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      alloc.Free(live[idx].core, live[idx].iova, live[idx].pages);
      ASSERT_TRUE(ref.Free(live[idx].iova >> kPageShift));
      live[idx] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(alloc.live_allocations(), live.size());
  EXPECT_EQ(alloc.tree().allocated_pages(), ref.allocated_pages());
}

// Property: allocations never overlap (checked against a reference set).
class RbTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RbTreeProperty, NoOverlappingAllocations) {
  Rng rng(GetParam());
  RbTreeAllocator tree(1 << 16);
  std::set<std::uint64_t> owned_pfns;
  struct Range {
    std::uint64_t start;
    std::uint64_t pages;
  };
  std::vector<Range> live;
  for (int i = 0; i < 3000; ++i) {
    if (live.empty() || rng.NextBool(0.55)) {
      const std::uint64_t pages = 1 + rng.NextBelow(32);
      const std::uint64_t start = tree.Alloc(pages);
      if (start == RbTreeAllocator::kInvalidPfn) {
        continue;
      }
      for (std::uint64_t p = start; p < start + pages; ++p) {
        ASSERT_TRUE(owned_pfns.insert(p).second) << "overlap at pfn " << p;
      }
      live.push_back({start, pages});
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Free(live[idx].start));
      for (std::uint64_t p = live[idx].start; p < live[idx].start + live[idx].pages; ++p) {
        owned_pfns.erase(p);
      }
      live[idx] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(tree.allocated_pages(), owned_pfns.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeProperty, ::testing::Values(11u, 22u, 33u));

IovaAllocatorConfig SmallConfig() {
  IovaAllocatorConfig config;
  config.num_cores = 2;
  config.magazine_size = 4;
  config.depot_magazines = 2;
  return config;
}

TEST(IovaAllocatorTest, AllocReturnsPageAlignedAddress) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova iova = alloc.Alloc(0, 1);
  ASSERT_NE(iova, IovaAllocator::kInvalidIova);
  EXPECT_EQ(iova % kPageSize, 0u);
}

TEST(IovaAllocatorTest, MultiPageAllocIsNaturallyAligned) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova iova = alloc.Alloc(0, 64);
  ASSERT_NE(iova, IovaAllocator::kInvalidIova);
  EXPECT_EQ(iova % (64 * kPageSize), 0u);
}

TEST(IovaAllocatorTest, FreedIovaIsRecycledLifoPerCore) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova a = alloc.Alloc(0, 1);
  const Iova b = alloc.Alloc(0, 1);
  alloc.Free(0, a, 1);
  alloc.Free(0, b, 1);
  // LIFO: b comes back first.
  EXPECT_EQ(alloc.Alloc(0, 1), b);
  EXPECT_EQ(alloc.Alloc(0, 1), a);
  EXPECT_GE(stats.Value("iova.cache_hits"), 2u);
}

TEST(IovaAllocatorTest, PerCoreCachesAreIndependent) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova a = alloc.Alloc(0, 1);
  alloc.Free(0, a, 1);
  // Core 1's alloc must not see core 0's cached IOVA (depot is empty, the
  // magazine is not full, so it stays on core 0).
  const Iova b = alloc.Alloc(1, 1);
  EXPECT_NE(b, a);
}

TEST(IovaAllocatorTest, DepotOverflowReturnsToTree) {
  StatsRegistry stats;
  IovaAllocatorConfig config = SmallConfig();
  config.magazine_size = 2;
  config.depot_magazines = 1;
  IovaAllocator alloc(config, &stats);
  std::vector<Iova> iovas;
  for (int i = 0; i < 32; ++i) {
    iovas.push_back(alloc.Alloc(0, 1));
  }
  for (Iova v : iovas) {
    alloc.Free(0, v, 1);
  }
  EXPECT_GT(stats.Value("iova.tree_frees"), 0u);
  EXPECT_EQ(alloc.live_allocations(), 0u);
}

TEST(IovaAllocatorTest, RcacheDisabledGoesStraightToTree) {
  StatsRegistry stats;
  IovaAllocatorConfig config = SmallConfig();
  config.enable_rcache = false;
  IovaAllocator alloc(config, &stats);
  const Iova a = alloc.Alloc(0, 1);
  alloc.Free(0, a, 1);
  const Iova b = alloc.Alloc(0, 1);
  EXPECT_EQ(a, b);  // top-down tree always hands back the highest gap
  EXPECT_EQ(stats.Value("iova.cache_hits"), 0u);
  EXPECT_EQ(stats.Value("iova.tree_allocs"), 2u);
}

TEST(IovaAllocatorTest, NonPowerOfTwoSizesRoundUp) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova a = alloc.Alloc(0, 48);  // rounds to 64 pages
  const Iova b = alloc.Alloc(0, 48);
  ASSERT_NE(a, IovaAllocator::kInvalidIova);
  // Ranges must be 64 pages apart (rounded), not 48.
  EXPECT_EQ(a - b, 64 * kPageSize);
}

TEST(IovaAllocatorTest, LargeOrdersBypassCache) {
  StatsRegistry stats;
  IovaAllocatorConfig config = SmallConfig();
  config.max_cached_order = 0;  // only single pages cached
  IovaAllocator alloc(config, &stats);
  const Iova a = alloc.Alloc(0, 64);
  alloc.Free(0, a, 64);
  EXPECT_EQ(stats.Value("iova.tree_frees"), 1u);
  EXPECT_EQ(stats.Value("iova.cache_hits"), 0u);
}

TEST(IovaAllocatorTest, AllocationsComeFromTopOfAddressSpace) {
  StatsRegistry stats;
  IovaAllocator alloc(SmallConfig(), &stats);
  const Iova a = alloc.Alloc(0, 1);
  // Top of the 48-bit space.
  EXPECT_GT(a, kIovaSpaceSize - (1ULL << 30));
}

// Property: no two live allocations overlap even under heavy magazine
// recycling across cores and size classes.
TEST(IovaAllocatorTest, NoAliasingUnderRecycling) {
  StatsRegistry stats;
  IovaAllocatorConfig config;
  config.num_cores = 4;
  config.magazine_size = 8;
  config.depot_magazines = 2;
  IovaAllocator alloc(config, &stats);
  Rng rng(5);
  struct Live {
    Iova iova;
    std::uint64_t pages;
    std::uint32_t core;
  };
  std::vector<Live> live;
  std::set<std::uint64_t> pfns;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t core = static_cast<std::uint32_t>(rng.NextBelow(4));
    if (live.empty() || rng.NextBool(0.55)) {
      const std::uint64_t pages = rng.NextBool(0.8) ? 1 : 64;
      const Iova iova = alloc.Alloc(core, pages);
      ASSERT_NE(iova, IovaAllocator::kInvalidIova);
      const std::uint64_t rounded = pages == 1 ? 1 : 64;
      for (std::uint64_t p = 0; p < rounded; ++p) {
        ASSERT_TRUE(pfns.insert((iova >> kPageShift) + p).second)
            << "IOVA alias at step " << i;
      }
      live.push_back({iova, pages, core});
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      const Live l = live[idx];
      const std::uint64_t rounded = l.pages == 1 ? 1 : 64;
      for (std::uint64_t p = 0; p < rounded; ++p) {
        pfns.erase((l.iova >> kPageShift) + p);
      }
      alloc.Free(core, l.iova, l.pages);
      live[idx] = live.back();
      live.pop_back();
    }
  }
}

}  // namespace
}  // namespace fsio

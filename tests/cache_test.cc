// Unit and property tests for the set-associative LRU cache that backs the
// IOTLB and the PTcache-L1/L2/L3 models.
#include <gtest/gtest.h>

#include <list>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/simcore/rng.h"

namespace fsio {
namespace {

TEST(SetAssocCacheTest, MissThenHit) {
  SetAssocCache c(1, 4);
  EXPECT_FALSE(c.Lookup(1).has_value());
  c.Insert(1, 100);
  auto hit = c.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 100u);
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCacheTest, LruEvictionInFullyAssociativeSet) {
  SetAssocCache c(1, 2);
  c.Insert(1, 0);
  c.Insert(2, 0);
  c.Lookup(1);       // 2 becomes LRU
  c.Insert(3, 0);    // evicts 2
  EXPECT_TRUE(c.Lookup(1).has_value());
  EXPECT_FALSE(c.Lookup(2).has_value());
  EXPECT_TRUE(c.Lookup(3).has_value());
  EXPECT_EQ(c.evictions(), 1u);
}

TEST(SetAssocCacheTest, InsertReturnsEvictedTag) {
  SetAssocCache c(1, 1);
  EXPECT_EQ(c.Insert(7, 0), std::nullopt);
  auto evicted = c.Insert(8, 0);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 7u);
}

TEST(SetAssocCacheTest, ReinsertUpdatesPayloadWithoutEviction) {
  SetAssocCache c(1, 2);
  c.Insert(1, 10);
  c.Insert(1, 20);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(*c.Peek(1), 20u);
  EXPECT_EQ(c.evictions(), 0u);
}

TEST(SetAssocCacheTest, InvalidateRemovesEntry) {
  SetAssocCache c(4, 2);
  c.Insert(5, 0);
  EXPECT_TRUE(c.Invalidate(5));
  EXPECT_FALSE(c.Invalidate(5));
  EXPECT_FALSE(c.Lookup(5).has_value());
  EXPECT_EQ(c.invalidations(), 1u);
}

TEST(SetAssocCacheTest, InvalidateRangeRemovesAllInRange) {
  SetAssocCache c(16, 4);
  for (std::uint64_t tag = 100; tag < 140; ++tag) {
    c.Insert(tag, 0);
  }
  const std::uint64_t removed = c.InvalidateRange(110, 119);
  EXPECT_EQ(removed, 10u);
  EXPECT_FALSE(c.Peek(110).has_value());
  EXPECT_FALSE(c.Peek(119).has_value());
  EXPECT_TRUE(c.Peek(109).has_value());
  EXPECT_TRUE(c.Peek(120).has_value());
}

TEST(SetAssocCacheTest, InvalidateRangeLargeRangeScansArrays) {
  SetAssocCache c(2, 2);
  c.Insert(1, 0);
  c.Insert(1000000, 0);
  // Range far larger than capacity exercises the scan path.
  EXPECT_EQ(c.InvalidateRange(0, ~0ULL), 2u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(SetAssocCacheTest, InvalidateByPayloadRemovesStalePointers) {
  SetAssocCache c(8, 2);
  c.Insert(1, 777);
  c.Insert(2, 777);
  c.Insert(3, 888);
  EXPECT_EQ(c.InvalidateByPayload(777), 2u);
  EXPECT_FALSE(c.Peek(1).has_value());
  EXPECT_FALSE(c.Peek(2).has_value());
  EXPECT_TRUE(c.Peek(3).has_value());
}

TEST(SetAssocCacheTest, InvalidateAllEmptiesCache) {
  SetAssocCache c(4, 4);
  for (std::uint64_t t = 0; t < 16; ++t) {
    c.Insert(t, 0);
  }
  c.InvalidateAll();
  EXPECT_EQ(c.size(), 0u);
}

TEST(SetAssocCacheTest, PeekDoesNotDisturbLruOrStats) {
  SetAssocCache c(1, 2);
  c.Insert(1, 0);
  c.Insert(2, 0);
  c.Peek(1);         // must NOT refresh 1
  c.Insert(3, 0);    // evicts 1 (true LRU)
  EXPECT_FALSE(c.Peek(1).has_value());
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(SetAssocCacheTest, DifferentSetsDoNotEvictEachOther) {
  // With many sets and 1 way, two tags in different sets coexist.
  SetAssocCache c(64, 1);
  std::uint64_t placed = 0;
  for (std::uint64_t t = 0; t < 32; ++t) {
    c.Insert(t, 0);
  }
  for (std::uint64_t t = 0; t < 32; ++t) {
    if (c.Peek(t).has_value()) {
      ++placed;
    }
  }
  // Some conflict misses are expected, but most tags must survive.
  EXPECT_GT(placed, 16u);
}

TEST(SetAssocCacheTest, RejectsNonPowerOfTwoSetCount) {
  EXPECT_THROW(SetAssocCache(6, 4), std::invalid_argument);  // 24 entries
  EXPECT_THROW(SetAssocCache(0, 4), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(3, 1), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache(1, 128));
  EXPECT_NO_THROW(SetAssocCache(16, 4));
}

TEST(SetAssocCacheTest, ResetStatsZeroesCountersButKeepsContents) {
  SetAssocCache c(1, 4);
  c.Insert(1, 0);
  c.Lookup(1);
  c.Lookup(2);
  c.ResetStats();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_TRUE(c.Peek(1).has_value());
}

// Reference model: fully-associative LRU over a std::list.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool Lookup(std::uint64_t tag) {
    auto it = index_.find(tag);
    if (it == index_.end()) {
      return false;
    }
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }

  void Insert(std::uint64_t tag) {
    if (Lookup(tag)) {
      return;
    }
    if (order_.size() == capacity_) {
      index_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(tag);
    index_[tag] = order_.begin();
  }

  void Invalidate(std::uint64_t tag) {
    auto it = index_.find(tag);
    if (it == index_.end()) {
      return;
    }
    order_.erase(it->second);
    index_.erase(it);
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
};

// Property test: a (1 set, N ways) cache must behave exactly like
// fully-associative LRU under a random workload.
class FullyAssocProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FullyAssocProperty, MatchesReferenceLru) {
  const std::uint32_t ways = GetParam();
  SetAssocCache cache(1, ways);
  ReferenceLru ref(ways);
  Rng rng(1234 + ways);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t tag = rng.NextBelow(ways * 3);
    const int op = static_cast<int>(rng.NextBelow(10));
    if (op < 6) {
      const bool got = cache.Lookup(tag).has_value();
      const bool want = ref.Lookup(tag);
      ASSERT_EQ(got, want) << "lookup mismatch at step " << i << " tag " << tag;
    } else if (op < 9) {
      cache.Insert(tag, tag);
      ref.Insert(tag);
    } else {
      cache.Invalidate(tag);
      ref.Invalidate(tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ways, FullyAssocProperty, ::testing::Values(1u, 2u, 4u, 8u, 64u, 128u));

// The cache's set-selection mix, repeated here so the oracle indexes sets
// the same way.
std::uint64_t MixTag(std::uint64_t tag) {
  tag ^= tag >> 33;
  tag *= 0xff51afd7ed558ccdULL;
  tag ^= tag >> 33;
  return tag;
}

// Scan-based oracle: the cache before it had a tag index, kept verbatim in
// behaviour — linear way scans for every tag search, the same victim rule,
// slot layout, counters and mutation-version bumps.
class ScanReference {
 public:
  ScanReference(std::uint32_t num_sets, std::uint32_t ways)
      : num_sets_(num_sets), ways_(ways), entries_(static_cast<std::size_t>(num_sets) * ways) {}

  void EnableWayPartitioning(std::uint32_t partitions, std::uint64_t field_shift,
                             std::uint64_t field_mask) {
    partitions_ = partitions > ways_ ? ways_ : partitions;
    field_shift_ = field_shift;
    field_mask_ = field_mask;
  }

  std::optional<std::uint64_t> Lookup(std::uint64_t tag, std::uint32_t* handle) {
    Entry* e = Find(tag);
    if (e == nullptr) {
      ++misses_;
      return std::nullopt;
    }
    *handle = static_cast<std::uint32_t>(e - entries_.data());
    return RepeatHit(*handle);
  }

  std::uint64_t RepeatHit(std::uint32_t handle) {
    ++hits_;
    entries_[handle].lru = ++tick_;
    return entries_[handle].payload;
  }

  std::optional<std::uint64_t> Peek(std::uint64_t tag) {
    const Entry* e = Find(tag);
    return e == nullptr ? std::nullopt : std::optional<std::uint64_t>(e->payload);
  }

  std::optional<std::uint64_t> Insert(std::uint64_t tag, std::uint64_t payload) {
    ++version_;
    if (Entry* e = Find(tag); e != nullptr) {
      e->payload = payload;
      e->lru = ++tick_;
      return std::nullopt;
    }
    const std::size_t base = SetOf(tag) * ways_;
    std::uint32_t first = 0;
    std::uint32_t last = ways_;
    if (partitions_ > 1) {
      const auto p =
          static_cast<std::uint32_t>(((tag >> field_shift_) & field_mask_) % partitions_);
      first = p * ways_ / partitions_;
      last = (p + 1) * ways_ / partitions_;
    }
    Entry* victim = nullptr;
    for (std::uint32_t w = first; w < last; ++w) {
      Entry& e = entries_[base + w];
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (victim == nullptr || e.lru < victim->lru) {
        victim = &e;
      }
    }
    std::optional<std::uint64_t> evicted;
    if (victim->valid) {
      evicted = victim->tag;
      ++evictions_;
    }
    *victim = Entry{true, tag, payload, ++tick_};
    return evicted;
  }

  bool Invalidate(std::uint64_t tag) {
    Entry* e = Find(tag);
    if (e == nullptr) {
      return false;
    }
    e->valid = false;
    ++invalidations_;
    ++version_;
    return true;
  }

  std::uint64_t InvalidateRange(std::uint64_t first, std::uint64_t last) {
    std::uint64_t removed = 0;
    if (last >= first && last - first < entries_.size()) {
      for (std::uint64_t tag = first;; ++tag) {
        removed += Invalidate(tag) ? 1 : 0;
        if (tag == last) {
          break;
        }
      }
      return removed;
    }
    return RemoveIf([&](const Entry& e) { return e.tag >= first && e.tag <= last; });
  }

  std::uint64_t InvalidateByPayload(std::uint64_t payload) {
    return RemoveIf([&](const Entry& e) { return e.payload == payload; });
  }

  std::uint64_t InvalidateMasked(std::uint64_t mask, std::uint64_t value) {
    return RemoveIf([&](const Entry& e) { return (e.tag & mask) == value; });
  }

  void InvalidateAll() {
    if (RemoveIf([](const Entry&) { return true; }) == 0) {
      ++version_;  // bumps once even when nothing was cached
    }
  }

  std::uint64_t size() const {
    std::uint64_t n = 0;
    for (const Entry& e : entries_) {
      n += e.valid ? 1 : 0;
    }
    return n;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }
  std::uint64_t mutation_version() const { return version_; }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t payload = 0;
    std::uint64_t lru = 0;
  };

  std::size_t SetOf(std::uint64_t tag) const { return MixTag(tag) & (num_sets_ - 1); }

  Entry* Find(std::uint64_t tag) {
    const std::size_t base = SetOf(tag) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (entries_[base + w].valid && entries_[base + w].tag == tag) {
        return &entries_[base + w];
      }
    }
    return nullptr;
  }

  // Removes every valid entry matching `pred`; bumps the version once if
  // any went.
  template <typename Pred>
  std::uint64_t RemoveIf(Pred pred) {
    std::uint64_t removed = 0;
    for (Entry& e : entries_) {
      if (e.valid && pred(e)) {
        e.valid = false;
        ++removed;
        ++invalidations_;
      }
    }
    version_ += removed > 0 ? 1 : 0;
    return removed;
  }

  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::uint32_t partitions_ = 1;
  std::uint64_t field_shift_ = 0;
  std::uint64_t field_mask_ = 0;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

struct Geometry {
  std::uint32_t sets;
  std::uint32_t ways;
  std::uint32_t partitions;
};

// Domain-style field for way partitioning and masked invalidation.
constexpr std::uint64_t kFieldShift = 48;
constexpr std::uint64_t kFieldMask = 3;

// Tags sharing one home bucket of the tag index (a 2x-capacity power-of-two
// table homed on the top bits of tag x 2^64/golden ratio). A quarter of the ops draw from
// them, so long probe runs form and evictions and deletes land inside them.
constexpr std::uint64_t kColliding = 8;

// The tags the ops draw from: the kColliding colliding tags first, then a
// contiguous run of three capacities (so ranges and evictions hit) and its
// copies in fields 1 and 2.
std::vector<std::uint64_t> TagUniverse(const Geometry& g) {
  const std::uint64_t capacity = static_cast<std::uint64_t>(g.sets) * g.ways;
  std::vector<std::uint64_t> tags;
  unsigned bits = 1;
  while ((std::uint64_t{1} << bits) < 2 * capacity) {
    ++bits;
  }
  const auto home = [bits](std::uint64_t t) { return (t * 0x9E3779B97F4A7C15ULL) >> (64 - bits); };
  for (std::uint64_t t = 1000000; tags.size() < kColliding; ++t) {
    if (home(t) == home(1000000)) {
      tags.push_back(t);
    }
  }
  for (std::uint64_t field = 0; field < 3; ++field) {
    for (std::uint64_t t = 0; t < 3 * capacity; ++t) {
      tags.push_back(t | (field << kFieldShift));
    }
  }
  return tags;
}

class CacheLockstep : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheLockstep, MatchesScanReference) {
  const Geometry g = GetParam();
  const std::uint64_t capacity = static_cast<std::uint64_t>(g.sets) * g.ways;
  SetAssocCache cache(g.sets, g.ways);
  ScanReference ref(g.sets, g.ways);
  if (g.partitions > 1) {
    cache.EnableWayPartitioning(g.partitions, kFieldShift, kFieldMask);
    ref.EnableWayPartitioning(g.partitions, kFieldShift, kFieldMask);
  }
  const std::vector<std::uint64_t> tags = TagUniverse(g);
  Rng rng(77 + capacity + g.partitions);
  // RepeatHit memo: valid while the mutation version is unchanged.
  std::optional<std::uint32_t> memo;
  std::uint64_t memo_version = 0;

  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const std::uint64_t tag =
        tags[rng.NextBelow(4) == 0 ? rng.NextBelow(kColliding) : rng.NextBelow(tags.size())];
    // In each 1000 steps, 700 of single-tag ops only (so even the 128-way
    // cache fills and evicts), then 300 with the range and bulk ops too.
    const std::uint64_t op = rng.NextBelow(step % 1000 < 700 ? 880 : 1000);
    if (op < 150) {
      std::uint32_t unused = 0;
      ASSERT_EQ(cache.Lookup(tag), ref.Lookup(tag, &unused));
    } else if (op < 300) {
      SetAssocCache::HitHandle got = 0;
      std::uint32_t want = 0;
      const auto hit = cache.Lookup(tag, &got);
      ASSERT_EQ(hit, ref.Lookup(tag, &want));
      if (hit.has_value()) {
        ASSERT_EQ(got, want);
        memo = got;
        memo_version = cache.mutation_version();
      }
    } else if (op < 380) {
      if (memo.has_value() && cache.mutation_version() == memo_version) {
        ASSERT_EQ(cache.RepeatHit(*memo), ref.RepeatHit(*memo));
      }
    } else if (op < 800) {
      const std::uint64_t payload = rng.NextBelow(8);
      ASSERT_EQ(cache.Insert(tag, payload), ref.Insert(tag, payload));
    } else if (op < 880) {
      ASSERT_EQ(cache.Invalidate(tag), ref.Invalidate(tag));
    } else if (op < 940) {
      const std::uint64_t last = tag + rng.NextBelow(capacity);  // per-tag path
      ASSERT_EQ(cache.InvalidateRange(tag, last), ref.InvalidateRange(tag, last));
    } else if (op < 960) {
      const std::uint64_t last = tag + capacity + rng.NextBelow(2 * capacity);  // scan
      ASSERT_EQ(cache.InvalidateRange(tag, last), ref.InvalidateRange(tag, last));
    } else if (op < 975) {
      const std::uint64_t payload = rng.NextBelow(8);
      ASSERT_EQ(cache.InvalidateByPayload(payload), ref.InvalidateByPayload(payload));
    } else if (op < 990) {
      const std::uint64_t value = rng.NextBelow(3) << kFieldShift;
      const std::uint64_t mask = kFieldMask << kFieldShift;
      ASSERT_EQ(cache.InvalidateMasked(mask, value), ref.InvalidateMasked(mask, value));
    } else if (op < 998) {
      const std::uint64_t all = ~std::uint64_t{0};
      ASSERT_EQ(cache.InvalidateRange(0, all), ref.InvalidateRange(0, all));
    } else {
      cache.InvalidateAll();
      ref.InvalidateAll();
    }
    ASSERT_EQ(cache.hits(), ref.hits());
    ASSERT_EQ(cache.misses(), ref.misses());
    ASSERT_EQ(cache.evictions(), ref.evictions());
    ASSERT_EQ(cache.invalidations(), ref.invalidations());
    ASSERT_EQ(cache.mutation_version(), ref.mutation_version());
    ASSERT_EQ(cache.size(), ref.size());
    for (const std::uint64_t t : tags) {
      ASSERT_EQ(cache.Peek(t), ref.Peek(t)) << "tag " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheLockstep,
                         ::testing::Values(Geometry{16, 4, 1}, Geometry{16, 4, 2},
                                           Geometry{1, 32, 1}, Geometry{1, 128, 1}),
                         [](const ::testing::TestParamInfo<Geometry>& info) {
                           return std::to_string(info.param.sets) + "x" +
                                  std::to_string(info.param.ways) + "p" +
                                  std::to_string(info.param.partitions);
                         });

}  // namespace
}  // namespace fsio

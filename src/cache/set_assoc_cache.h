// Generic set-associative cache with per-set LRU replacement.
//
// Models the IOMMU's IOTLB and the per-level IO page table caches
// (PTcache-L1/L2/L3). Keys are opaque 64-bit tags (for the IOTLB, the IOVA
// page number; for PTcache-Li, the IOVA prefix indexing that level). Each
// entry may carry a 64-bit payload (we store the backing page-table page's
// generation so the simulator can detect stale-entry use — a safety
// violation).
//
// An exact tag -> slot index makes every single-tag operation O(1) whatever
// the associativity; only the victim choice and the bulk invalidations scan.
#ifndef FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_
#define FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/stats/counters.h"

namespace fsio {

class SetAssocCache {
 public:
  // `num_sets` must be a power of two (std::invalid_argument otherwise);
  // `ways` 0 is taken as 1. A fully-associative cache of N entries is
  // (num_sets=1, ways=N).
  SetAssocCache(std::uint32_t num_sets, std::uint32_t ways);

  // Handle to the entry a Lookup hit. Stays valid — and RepeatHit stays
  // equivalent to a fresh Lookup of the same tag — until mutation_version()
  // changes.
  using HitHandle = std::uint32_t;

  // Looks up `tag`; on hit, refreshes LRU order and returns the payload.
  std::optional<std::uint64_t> Lookup(std::uint64_t tag);

  // As above; on hit also writes a handle for RepeatHit.
  std::optional<std::uint64_t> Lookup(std::uint64_t tag, HitHandle* handle);

  // Replays the exact effects of re-looking-up a previously hit entry
  // (hit counter + LRU refresh) without the tag search. Caller must have
  // checked mutation_version() is unchanged since the handle was obtained.
  std::uint64_t RepeatHit(HitHandle handle);

  // Replays the effects of a Lookup miss (miss counter only).
  void NoteRepeatMiss() { ++misses_; }

  // Incremented by every call that may change entry contents (Insert and all
  // invalidations that remove at least one entry). Lookup never bumps it.
  std::uint64_t mutation_version() const { return mut_version_; }

  // Looks up without disturbing LRU order or counters (for tests/debug).
  std::optional<std::uint64_t> Peek(std::uint64_t tag) const;

  // Inserts (or updates) `tag` with `payload`, evicting the set's LRU entry
  // if the set is full. Returns the evicted tag, if any.
  std::optional<std::uint64_t> Insert(std::uint64_t tag, std::uint64_t payload);

  // Removes `tag` if present. Returns true if an entry was removed.
  bool Invalidate(std::uint64_t tag);

  // Removes every entry whose tag is in [first, last]. Returns the number of
  // entries removed. (Tags are page numbers / prefixes, so contiguous IOVA
  // ranges map to contiguous tag ranges.)
  std::uint64_t InvalidateRange(std::uint64_t first, std::uint64_t last);

  // Removes every entry whose payload equals `payload` (used when a page
  // table page is reclaimed: all cached pointers to it become stale).
  std::uint64_t InvalidateByPayload(std::uint64_t payload);

  // Removes every entry with (tag & mask) == value — a domain-selective
  // invalidation over domain-tagged entries. Returns the number removed.
  std::uint64_t InvalidateMasked(std::uint64_t mask, std::uint64_t value);

  // Counts entries with (tag & mask) == value without touching LRU order,
  // counters or the mutation version (tests/benchmarks only).
  std::uint64_t CountMatching(std::uint64_t mask, std::uint64_t value) const;

  void InvalidateAll();

  // Way-partitioned replacement: Insert's victim search is confined to the
  // partition selected by ((tag >> field_shift) & field_mask) % partitions,
  // so one partition's insertions can never evict another's entries (the
  // IOTLB side-channel defense). Lookups still probe every way. `partitions`
  // is clamped to the way count; partitions <= 1 restores the shared policy.
  void EnableWayPartitioning(std::uint32_t partitions, std::uint64_t field_shift,
                             std::uint64_t field_mask);

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }
  std::uint64_t size() const;  // number of valid entries (O(capacity))
  std::uint64_t capacity() const { return static_cast<std::uint64_t>(num_sets_) * ways_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }
  void ResetStats();

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t payload = 0;
    std::uint64_t lru = 0;  // last-touch tick, larger = more recent
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // One bucket of the tag index; slot == kNoSlot marks it empty.
  struct IndexBucket {
    std::uint64_t tag = 0;
    std::uint32_t slot = kNoSlot;
  };

  std::size_t SetIndexFor(std::uint64_t tag) const;
  std::size_t HomeOf(std::uint64_t tag) const;  // tag's home bucket in index_
  // The index bucket holding `tag`, or the empty bucket ending its probe
  // sequence.
  std::size_t Probe(std::uint64_t tag) const;
  // Empties index bucket `hole`, shifting later members of its probe run
  // back so that no run has a gap.
  void EraseBucket(std::size_t hole);
  // Invalidates a valid entry found by a scan and drops its tag from the
  // index (counts the invalidation; the caller bumps mut_version_).
  void RemoveScanned(Entry& e);

  std::uint32_t num_sets_;
  std::uint32_t ways_;
  // Way partitioning (EnableWayPartitioning); partitions_ <= 1 = disabled.
  std::uint32_t partitions_ = 1;
  std::uint64_t partition_field_shift_ = 0;
  std::uint64_t partition_field_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t mut_version_ = 0;
  std::vector<Entry> entries_;  // num_sets_ * ways_, set-major
  // Tag index: exactly the valid entries' tags, each with its entries_ slot.
  // Open addressing with linear probing over a power-of-two table of at
  // least twice the capacity, so every probe run ends at an empty bucket.
  std::vector<IndexBucket> index_;
  std::size_t index_mask_ = 0;
  unsigned index_shift_ = 0;  // HomeOf keeps the product's top bits

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_CACHE_SET_ASSOC_CACHE_H_

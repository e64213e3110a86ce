#include "src/cache/set_assoc_cache.h"

#include <stdexcept>
#include <string>

namespace fsio {

namespace {
// Mixes the tag before set selection so that strided tags (consecutive page
// numbers) spread across sets the way physical indexing does.
std::uint64_t MixTag(std::uint64_t tag) {
  tag ^= tag >> 33;
  tag *= 0xff51afd7ed558ccdULL;
  tag ^= tag >> 33;
  return tag;
}

// Home bucket of a tag in the tag index: Fibonacci hashing (multiply by
// 2^64 / golden ratio, keep the top bits) spreads runs of consecutive tags
// evenly; MixTag's single multiply maps them to neighbouring buckets, which
// linear probing turns into long runs.
constexpr std::uint64_t kFibonacciMultiplier = 0x9E3779B97F4A7C15ULL;
}  // namespace

SetAssocCache::SetAssocCache(std::uint32_t num_sets, std::uint32_t ways)
    : num_sets_(num_sets), ways_(ways == 0 ? 1 : ways) {
  if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0) {
    throw std::invalid_argument("SetAssocCache: num_sets must be a power of two, got " +
                                std::to_string(num_sets));
  }
  entries_.resize(static_cast<std::size_t>(num_sets_) * ways_);
  std::size_t buckets = 2;
  index_shift_ = 63;
  while (buckets < 2 * entries_.size()) {
    buckets *= 2;
    --index_shift_;
  }
  index_.resize(buckets);
  index_mask_ = buckets - 1;
}

std::size_t SetAssocCache::SetIndexFor(std::uint64_t tag) const {
  return static_cast<std::size_t>(MixTag(tag) & (num_sets_ - 1));
}

std::size_t SetAssocCache::HomeOf(std::uint64_t tag) const {
  return static_cast<std::size_t>((tag * kFibonacciMultiplier) >> index_shift_);
}

std::size_t SetAssocCache::Probe(std::uint64_t tag) const {
  std::size_t i = HomeOf(tag);
  while (index_[i].slot != kNoSlot && index_[i].tag != tag) {
    i = (i + 1) & index_mask_;
  }
  return i;
}

void SetAssocCache::EraseBucket(std::size_t hole) {
  for (std::size_t j = (hole + 1) & index_mask_; index_[j].slot != kNoSlot;
       j = (j + 1) & index_mask_) {
    const std::size_t home = HomeOf(index_[j].tag);
    // j's tag may fill the hole iff the hole lies cyclically in [home, j).
    if (((j - home) & index_mask_) >= ((j - hole) & index_mask_)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNoSlot;
}

void SetAssocCache::RemoveScanned(Entry& e) {
  e.valid = false;
  ++invalidations_;
  EraseBucket(Probe(e.tag));
}

std::optional<std::uint64_t> SetAssocCache::Lookup(std::uint64_t tag) {
  HitHandle unused = 0;
  return Lookup(tag, &unused);
}

std::optional<std::uint64_t> SetAssocCache::Lookup(std::uint64_t tag, HitHandle* handle) {
  const std::uint32_t slot = index_[Probe(tag)].slot;
  if (slot == kNoSlot) {
    ++misses_;
    return std::nullopt;
  }
  *handle = slot;
  return RepeatHit(slot);
}

std::optional<std::uint64_t> SetAssocCache::Peek(std::uint64_t tag) const {
  const std::uint32_t slot = index_[Probe(tag)].slot;
  if (slot == kNoSlot) {
    return std::nullopt;
  }
  return entries_[slot].payload;
}

std::optional<std::uint64_t> SetAssocCache::Insert(std::uint64_t tag, std::uint64_t payload,
                                                   HitHandle* handle) {
  ++mut_version_;
  std::size_t bucket = Probe(tag);
  if (const std::uint32_t slot = index_[bucket].slot; slot != kNoSlot) {
    Entry& existing = entries_[slot];
    existing.payload = payload;
    existing.lru = ++tick_;
    if (handle != nullptr) {
      *handle = slot;
    }
    return std::nullopt;
  }
  const std::size_t base = SetIndexFor(tag) * ways_;
  // Victim search range: the whole set, or the tag's way partition.
  std::uint32_t way_first = 0;
  std::uint32_t way_last = ways_;
  if (partitions_ > 1) {
    const std::uint32_t p = static_cast<std::uint32_t>(
        ((tag >> partition_field_shift_) & partition_field_mask_) % partitions_);
    way_first = p * ways_ / partitions_;
    way_last = (p + 1) * ways_ / partitions_;
  }
  Entry* victim = nullptr;
  for (std::uint32_t w = way_first; w < way_last; ++w) {
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
    EraseBucket(Probe(victim->tag));
    // The erase may have shifted a bucket back into tag's probe run.
    bucket = Probe(tag);
  }
  victim->valid = true;
  victim->tag = tag;
  victim->payload = payload;
  victim->lru = ++tick_;
  const auto slot = static_cast<std::uint32_t>(victim - entries_.data());
  index_[bucket] = {tag, slot};
  if (handle != nullptr) {
    *handle = slot;
  }
  return evicted;
}

bool SetAssocCache::Invalidate(std::uint64_t tag) {
  const std::size_t bucket = Probe(tag);
  const std::uint32_t slot = index_[bucket].slot;
  if (slot == kNoSlot) {
    return false;
  }
  entries_[slot].valid = false;
  EraseBucket(bucket);
  ++invalidations_;
  ++mut_version_;
  return true;
}

std::uint64_t SetAssocCache::InvalidateRange(std::uint64_t first, std::uint64_t last) {
  // Small ranges (a descriptor's worth of pages) probe per tag; large ranges
  // scan the arrays once.
  std::uint64_t removed = 0;
  if (last >= first && last - first < capacity()) {
    for (std::uint64_t tag = first;; ++tag) {
      if (Invalidate(tag)) {
        ++removed;
      }
      if (tag == last) {
        break;
      }
    }
    return removed;
  }
  for (Entry& e : entries_) {
    if (e.valid && e.tag >= first && e.tag <= last) {
      RemoveScanned(e);
      ++removed;
    }
  }
  if (removed > 0) {
    ++mut_version_;
  }
  return removed;
}

std::uint64_t SetAssocCache::InvalidateByPayload(std::uint64_t payload) {
  std::uint64_t removed = 0;
  for (Entry& e : entries_) {
    if (e.valid && e.payload == payload) {
      RemoveScanned(e);
      ++removed;
    }
  }
  if (removed > 0) {
    ++mut_version_;
  }
  return removed;
}

std::uint64_t SetAssocCache::InvalidateMasked(std::uint64_t mask, std::uint64_t value) {
  std::uint64_t removed = 0;
  for (Entry& e : entries_) {
    if (e.valid && (e.tag & mask) == value) {
      RemoveScanned(e);
      ++removed;
    }
  }
  if (removed > 0) {
    ++mut_version_;
  }
  return removed;
}

std::uint64_t SetAssocCache::CountMatching(std::uint64_t mask, std::uint64_t value) const {
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.valid && (e.tag & mask) == value) {
      ++n;
    }
  }
  return n;
}

void SetAssocCache::EnableWayPartitioning(std::uint32_t partitions, std::uint64_t field_shift,
                                          std::uint64_t field_mask) {
  partitions_ = partitions > ways_ ? ways_ : partitions;
  partition_field_shift_ = field_shift;
  partition_field_mask_ = field_mask;
}

void SetAssocCache::InvalidateAll() {
  ++mut_version_;
  for (Entry& e : entries_) {
    if (e.valid) {
      e.valid = false;
      ++invalidations_;
    }
  }
  for (IndexBucket& b : index_) {
    b.slot = kNoSlot;
  }
}

std::uint64_t SetAssocCache::size() const {
  std::uint64_t n = 0;
  for (const Entry& e : entries_) {
    if (e.valid) {
      ++n;
    }
  }
  return n;
}

void SetAssocCache::ResetStats() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  invalidations_ = 0;
}

}  // namespace fsio

#include "src/simcore/event_queue.h"

#ifndef FSIO_EVENTQ_REFERENCE

#include <algorithm>

namespace fsio {
namespace {

inline unsigned CountTrailingZeros(std::uint64_t word) {
  return static_cast<unsigned>(__builtin_ctzll(word));
}

}  // namespace

EventQueue::~EventQueue() {
  // Destroy still-pending callables without running them. Records themselves
  // are freed with the chunks.
  for (std::uint64_t mask = active_mask_; mask != 0; mask &= mask - 1) {
    for (EventRec* rec = active_[CountTrailingZeros(mask)].head; rec != nullptr;
         rec = rec->next) {
      rec->tramp(rec->payload, /*run=*/false);
    }
  }
  for (const HeapEntry& e : overflow_) {
    e.rec->tramp(e.rec->payload, /*run=*/false);
  }
  for (Bucket& bucket : buckets_) {
    for (EventRec* rec = bucket.head; rec != nullptr; rec = rec->next) {
      rec->tramp(rec->payload, /*run=*/false);
    }
  }
}

void EventQueue::AddChunk() {
  auto chunk = std::make_unique<EventRec[]>(kChunkRecs);
  // Thread the fresh slots onto the free list in address order.
  for (std::size_t i = kChunkRecs; i-- > 0;) {
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  chunks_.push_back(std::move(chunk));
  capacity_ += kChunkRecs;
  ++allocations_;
}

EventQueue::EventRec* EventQueue::AcquireSlow() {
  AddChunk();
  return PopFree();
}

void EventQueue::Reserve(std::size_t events) {
  while (capacity_ < events) {
    AddChunk();
  }
}

void EventQueue::Insert(EventRec* rec) {
  ++pending_;
  const std::uint64_t bucket = BucketOf(rec->when);
  if (bucket < activated_end_) {
    // In the activated bucket (when >= now() keeps it from any earlier one);
    // its seq is the largest yet, so appending keeps the slot in seq order.
    AppendActive(rec);
    return;
  }
  if (bucket < activated_end_ + kNumBuckets) {
    AppendToBucket(bucket, rec);
    return;
  }
  ++overflow_inserts_;
  overflow_.push_back(HeapEntry{rec->when, rec->seq, rec});
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void EventQueue::AppendToBucket(std::uint64_t bucket, EventRec* rec) {
  Bucket& slot = buckets_[bucket & kBucketMask];
  rec->next = nullptr;
  if (slot.tail != nullptr) {
    slot.tail->next = rec;
  } else {
    slot.head = rec;
    occupied_[(bucket & kBucketMask) >> 6] |= std::uint64_t{1} << (bucket & 63);
  }
  slot.tail = rec;
  if (bucket < next_occupied_) {
    next_occupied_ = bucket;
  }
}

std::uint64_t EventQueue::FindNextOccupied() const {
  // The horizon covers every slot once, starting at the slot of
  // activated_end_: scan the bitmap words from there, wrapping once, and end
  // on the low bits of the start word.
  constexpr std::size_t kWords = kNumBuckets / 64;
  const std::uint64_t start = activated_end_ & kBucketMask;
  std::size_t wi = start >> 6;
  std::uint64_t word = occupied_[wi] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t step = 0; step <= kWords; ++step) {
    if (word != 0) {
      const std::uint64_t slot = (wi << 6) + CountTrailingZeros(word);
      return activated_end_ + ((slot - start) & kBucketMask);
    }
    wi = (wi + 1) & (kWords - 1);
    word = occupied_[wi];
  }
  return kNoBucket;
}

void EventQueue::ActivateBucket(std::uint64_t bucket) {
  // Pre: the active tier is empty. The bucket's list holds each nanosecond's
  // records in seq order, so distributing it in list order keeps every slot
  // sorted.
  Bucket& slot = buckets_[bucket & kBucketMask];
  for (EventRec* rec = slot.head; rec != nullptr;) {
    EventRec* next = rec->next;
    AppendActive(rec);
    rec = next;
  }
  slot.head = nullptr;
  slot.tail = nullptr;
  occupied_[(bucket & kBucketMask) >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  activated_end_ = bucket + 1;
  PromoteOverflow();
  next_occupied_ = FindNextOccupied();
}

void EventQueue::PromoteOverflow() {
  // The buckets that just entered the horizon reuse the slots of buckets
  // drained one lap earlier (or, after a jump, of an empty calendar), and
  // nothing is ever inserted past the horizon, so they are empty: promoting
  // in (when, seq) order leaves each bucket's list in seq order.
  const std::uint64_t end = activated_end_ + kNumBuckets;
  while (!overflow_.empty() && BucketOf(overflow_.front().when) < end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    EventRec* rec = overflow_.back().rec;
    overflow_.pop_back();
    AppendToBucket(BucketOf(rec->when), rec);  // pending_ already counts it
  }
}

EventQueue::EventRec* EventQueue::PrepareTop(TimeNs deadline) {
  if (active_mask_ == 0) {
    // Bucket events are no earlier than BucketStartNs(next_occupied_), and
    // overflow events lie beyond the horizon entirely. Activating or jumping
    // past the deadline would let a caller later schedule, between RunUntil
    // calls, into a bucket before the activated one.
    if (next_occupied_ == kNoBucket) {
      if (overflow_.empty() || overflow_.front().when > deadline) {
        return nullptr;
      }
      // The calendar is empty: start the horizon at the overflow heap's top.
      activated_end_ = BucketOf(overflow_.front().when);
      PromoteOverflow();  // next_occupied_ becomes the top event's bucket
    }
    if (BucketStartNs(next_occupied_) > deadline) {
      return nullptr;
    }
    ActivateBucket(next_occupied_);
  }
  return active_[CountTrailingZeros(active_mask_)].head;
}

void EventQueue::RunTop(EventRec* rec) {
  const unsigned slot = static_cast<unsigned>(rec->when & (kBucketWidthNs - 1));
  active_[slot].head = rec->next;
  if (rec->next == nullptr) {
    active_mask_ &= ~(std::uint64_t{1} << slot);
  }
  --pending_;
  now_ = rec->when;
  rec->tramp(rec->payload, /*run=*/true);
  Release(rec);
  ++executed_;
}

std::uint64_t EventQueue::RunUntil(TimeNs deadline) {
  std::uint64_t ran = 0;
  for (;;) {
    EventRec* rec = PrepareTop(deadline);
    if (rec == nullptr || rec->when > deadline) {
      break;
    }
    RunTop(rec);
    ++ran;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return ran;
}

std::uint64_t EventQueue::RunAll() {
  std::uint64_t ran = 0;
  while (EventRec* rec = PrepareTop(kTimeNsMax)) {
    RunTop(rec);
    ++ran;
  }
  return ran;
}

}  // namespace fsio

#endif  // FSIO_EVENTQ_REFERENCE

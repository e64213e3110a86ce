// Discrete-event simulation core.
//
// The EventQueue owns the simulated clock and the set of pending events.
// Components schedule closures at absolute or relative times; the queue
// executes them in (time, insertion-order) order, which makes every
// simulation run fully deterministic.
//
// Implementation (DESIGN.md §11): a calendar queue over arena-allocated
// typed event records.
//
//   * Events live in fixed-size EventRec slots carved from chunked arenas
//     and recycled through an intrusive free list — steady-state scheduling
//     performs zero heap allocations. The callable is placed directly into
//     the record's inline payload (EventFn: one trampoline function pointer
//     plus up to kInlinePayloadBytes of capture state); closures too large
//     for the inline buffer fall back to a heap box, and allocations()
//     counts every heap allocation the scheduler makes so tests can assert
//     the hot paths stay allocation-free.
//
//   * Pending events are organized in three tiers keyed by (when, seq):
//     an "active" tier holding the one activated calendar bucket as 64
//     per-nanosecond FIFO lists under a 64-bit occupancy mask,
//     kNumBuckets calendar buckets of kBucketWidthNs each (intrusive
//     singly-linked lists, occupancy bitmap) covering the rolling horizon
//     that starts just after the activated bucket, and a sorted overflow
//     heap for events beyond that horizon. Each activation moves the
//     horizon forward to the new bucket and promotes the overflow events
//     whose buckets just entered it; a drained bucket's slot is reused one
//     lap later. A bucket is activated only once the active tier is empty,
//     and RunUntil never activates a bucket (or jumps to an overflow
//     event) past its deadline, so every active event lies in that one
//     bucket and `when & 63` is a unique slot. Each per-slot list stays in
//     seq order, so the pop order is exactly the (when, seq) total order
//     the old binary heap produced — same-timestamp events stay FIFO and
//     every golden trace is byte-identical. Insert and pop are O(1) with no
//     comparisons for every event scheduled at most kHorizonNs ahead of
//     the running one.
//
// Building with -DFSIO_EVENTQ_REFERENCE swaps in the original
// priority_queue implementation (reference_event_queue.h) for differential
// cross-checks of whole benches.
#ifndef FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_
#define FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_

#ifdef FSIO_EVENTQ_REFERENCE

#include "src/simcore/reference_event_queue.h"

namespace fsio {
using EventQueue = ReferenceEventQueue;
}  // namespace fsio

#else  // FSIO_EVENTQ_REFERENCE

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/simcore/time.h"

namespace fsio {

// A single-threaded discrete-event scheduler.
//
// Events scheduled for the same timestamp run in the order they were
// scheduled (FIFO), which keeps causally-ordered zero-delay chains stable.
class EventQueue {
 public:
  // Captures up to this many bytes of closure state inline in the event
  // record. Sized to hold the simulator's largest hot-path closure (a Packet
  // plus a vector handle and a few scalars) with headroom; anything larger
  // takes the counted heap-box fallback.
  static constexpr std::size_t kInlinePayloadBytes = 144;

  // Calendar geometry: 2^14 buckets of 64 ns, a horizon of ~1.05 ms — wide
  // enough that serialization, DMA, memory, think-time and NIC egress-backlog
  // events all land in buckets; only RTO-scale timers take the overflow
  // heap. While an event runs, anything it schedules at most kHorizonNs
  // ahead goes into the calendar.
  static constexpr TimeNs kBucketWidthNs = 64;
  static constexpr TimeNs kHorizonNs = kBucketWidthNs << 14;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  // Current simulated time. Only advances inside Run*().
  TimeNs now() const { return now_; }

  // Schedules `fn` (any void() callable) to run at absolute time `when`.
  // Scheduling in the past is clamped to `now()` (the event runs before the
  // clock next advances). The callable is moved/copied into the event
  // record's inline payload; see kInlinePayloadBytes.
  template <typename F>
  void ScheduleAt(TimeNs when, F&& fn) {
    using Fn = std::decay_t<F>;
    if (when < now_) {
      when = now_;
    }
    EventRec* rec = free_ != nullptr ? PopFree() : AcquireSlow();
    rec->when = when;
    rec->seq = next_seq_++;
    if constexpr (sizeof(Fn) <= kInlinePayloadBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(rec->payload)) Fn(std::forward<F>(fn));
      rec->tramp = &InlineTrampoline<Fn>;
    } else {
      // Rare large-closure fallback: box the callable on the heap (counted).
      ::new (static_cast<void*>(rec->payload)) Fn*(new Fn(std::forward<F>(fn)));
      rec->tramp = &BoxedTrampoline<Fn>;
      ++allocations_;
    }
    Insert(rec);
  }

  // Schedules `fn` to run `delay` nanoseconds from now. A delay that would
  // overflow TimeNs saturates to kTimeNsMax instead of wrapping into the past
  // (where the past-clamp would fire it immediately).
  template <typename F>
  void ScheduleAfter(TimeNs delay, F&& fn) {
    const TimeNs when = delay > kTimeNsMax - now_ ? kTimeNsMax : now_ + delay;
    ScheduleAt(when, std::forward<F>(fn));
  }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // Events scheduled exactly at `deadline` are executed. Returns the number
  // of events executed.
  std::uint64_t RunUntil(TimeNs deadline);

  // Runs every pending event (including ones scheduled by executed events).
  // Intended for tests; a self-rescheduling event would never terminate.
  std::uint64_t RunAll();

  // Number of events currently pending.
  std::size_t pending() const { return pending_; }

  // Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

  // Number of heap allocations the scheduler has performed over its lifetime:
  // arena chunk growth plus large-closure boxes. Once the arena is warm (or
  // Reserve()d) and every callable fits inline, this counter must stay flat —
  // steady-state measurement windows schedule millions of events with zero
  // allocations, and tests assert exactly that.
  std::uint64_t allocations() const { return allocations_; }

  // Number of ScheduleAt calls whose event lay beyond the calendar horizon
  // and went into the overflow heap.
  std::uint64_t overflow_inserts() const { return overflow_inserts_; }

  // Pre-allocates arena capacity for at least `events` concurrently-pending
  // events, so a run sized below that bound never grows the arena mid-window.
  void Reserve(std::size_t events);

  // Total EventRec slots owned by the arena (free or pending).
  std::size_t arena_capacity() const { return capacity_; }

 private:
  static constexpr std::uint64_t kBucketShift = 6;
  static_assert(kBucketWidthNs == TimeNs{1} << kBucketShift, "bucket width is 2^kBucketShift");
  // The active tier has one slot per nanosecond of a bucket, one mask bit
  // per slot.
  static_assert(kBucketWidthNs == std::numeric_limits<std::uint64_t>::digits,
                "active-tier slots must fill one 64-bit mask");
  static constexpr std::size_t kNumBuckets = kHorizonNs >> kBucketShift;  // power of two
  static_assert((kNumBuckets & (kNumBuckets - 1)) == 0, "bucket count must be a power of two");
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
  static constexpr std::size_t kChunkRecs = 2048;   // arena growth quantum
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  // One pending event: intrusive list hook + typed callable (EventFn).
  // `tramp` both runs and destroys the payload (run=true), or just destroys
  // it (run=false, queue teardown).
  struct EventRec {
    TimeNs when;
    std::uint64_t seq;
    EventRec* next;
    void (*tramp)(void* payload, bool run);
    alignas(alignof(std::max_align_t)) unsigned char payload[kInlinePayloadBytes];
  };
  static_assert(sizeof(EventRec) == 176, "EventRec layout drifted");

  // FIFO list of records: a calendar bucket or an active-tier slot.
  struct Bucket {
    EventRec* head = nullptr;
    EventRec* tail = nullptr;
  };

  // Overflow-heap entry: (when, seq) key copied next to the record pointer
  // so heap sifts never touch the record (or its payload).
  struct HeapEntry {
    TimeNs when;
    std::uint64_t seq;
    EventRec* rec;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  template <typename Fn>
  static void InlineTrampoline(void* payload, bool run) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(payload));
    if (run) {
      (*fn)();
    }
    fn->~Fn();
  }

  template <typename Fn>
  static void BoxedTrampoline(void* payload, bool run) {
    Fn* fn = *std::launder(reinterpret_cast<Fn**>(payload));
    if (run) {
      (*fn)();
    }
    delete fn;
  }

  static constexpr std::uint64_t BucketOf(TimeNs when) { return when >> kBucketShift; }
  static constexpr TimeNs BucketStartNs(std::uint64_t bucket) {
    return static_cast<TimeNs>(bucket) << kBucketShift;
  }

  EventRec* PopFree() {
    EventRec* rec = free_;
    free_ = rec->next;
    return rec;
  }
  EventRec* AcquireSlow();  // grows the arena by one chunk, then pops
  void AddChunk();
  void Insert(EventRec* rec);
  void Release(EventRec* rec) {
    rec->next = free_;
    free_ = rec;
  }
  // Appends `rec` to calendar bucket `bucket` (inside the horizon).
  void AppendToBucket(std::uint64_t bucket, EventRec* rec);
  // Appends `rec` to its active-tier slot (its bucket is the activated one).
  void AppendActive(EventRec* rec) {
    const unsigned slot = static_cast<unsigned>(rec->when & (kBucketWidthNs - 1));
    Bucket& list = active_[slot];
    rec->next = nullptr;
    if ((active_mask_ >> slot & 1) == 0) {
      list.head = rec;
      active_mask_ |= std::uint64_t{1} << slot;
    } else {
      list.tail->next = rec;
    }
    list.tail = rec;
  }

  // Returns the globally earliest pending event if it is due by `deadline`
  // (it may still be later than `deadline` when it was already active),
  // activating the next calendar bucket, or jumping the horizon to the
  // overflow heap's top, only when the active tier is empty and the bucket
  // starts, or the overflow event lies, at-or-before `deadline`. Returns
  // nullptr when nothing is pending or due.
  EventRec* PrepareTop(TimeNs deadline);
  // Unlinks and runs the earliest active event (PrepareTop's return).
  void RunTop(EventRec* rec);
  // Moves `bucket` into the active tier and rolls the horizon forward.
  void ActivateBucket(std::uint64_t bucket);
  // Moves the overflow events whose buckets now lie inside the horizon into
  // those buckets, in (when, seq) order.
  void PromoteOverflow();
  // Smallest occupied calendar bucket index, or kNoBucket.
  std::uint64_t FindNextOccupied() const;

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  // Tier 1: the events of bucket activated_end_ - 1, one FIFO list per
  // nanosecond (slot when & 63); bit s of active_mask_ is set iff slot s is
  // non-empty.
  std::array<Bucket, kBucketWidthNs> active_{};
  std::uint64_t active_mask_ = 0;
  // Tier 2: the calendar over the horizon [activated_end_, activated_end_ +
  // kNumBuckets). Bucket b (absolute index) lives in slot b & kBucketMask;
  // the slot of a drained bucket serves the bucket kNumBuckets later.
  // Buckets with index < activated_end_ have been drained into active_.
  std::vector<Bucket> buckets_ = std::vector<Bucket>(kNumBuckets);
  std::vector<std::uint64_t> occupied_ = std::vector<std::uint64_t>(kNumBuckets / 64, 0);
  std::uint64_t activated_end_ = 0;   // buckets below this are in active_
  std::uint64_t next_occupied_ = kNoBucket;  // cached FindNextOccupied()
  // Tier 3: events beyond the horizon, promoted into their buckets as the
  // horizon reaches them.
  std::vector<HeapEntry> overflow_;
  std::uint64_t overflow_inserts_ = 0;

  // Arena: chunked storage + intrusive free list.
  std::vector<std::unique_ptr<EventRec[]>> chunks_;
  EventRec* free_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace fsio

#endif  // FSIO_EVENTQ_REFERENCE

#endif  // FASTSAFE_SRC_SIMCORE_EVENT_QUEUE_H_

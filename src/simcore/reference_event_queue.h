// Reference discrete-event scheduler: the original std::priority_queue +
// std::function implementation, kept verbatim as the behavioural oracle for
// the calendar-queue EventQueue (src/simcore/event_queue.h).
//
// Two consumers:
//   * tests/eventcore_test.cc runs randomized differential schedules against
//     this class and asserts execution order, clocks and counts match the
//     calendar queue exactly;
//   * building with -DFSIO_EVENTQ_REFERENCE aliases EventQueue to this class
//     (see event_queue.h), so the whole simulator — including the golden
//     benches — can be cross-checked against the pre-refactor scheduler.
//
// Apart from the ScheduleAfter saturation fix (shared with EventQueue so the
// two stay comparable) this file must not be "improved": its value is being
// the old implementation.
#ifndef FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_
#define FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/simcore/time.h"

namespace fsio {

// A single-threaded discrete-event scheduler.
//
// Events scheduled for the same timestamp run in the order they were
// scheduled (FIFO), which keeps causally-ordered zero-delay chains stable.
class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  // API parity with the calendar EventQueue (call sites static_assert their
  // hot closures against this bound); the reference queue itself has no
  // inline-payload limit — std::function takes any size.
  static constexpr std::size_t kInlinePayloadBytes = 144;
  // API parity: the calendar EventQueue's geometry, so tests derive their
  // schedules from it in either build. The reference queue has no calendar.
  static constexpr TimeNs kBucketWidthNs = 64;
  static constexpr TimeNs kHorizonNs = kBucketWidthNs << 14;

  ReferenceEventQueue() = default;
  ReferenceEventQueue(const ReferenceEventQueue&) = delete;
  ReferenceEventQueue& operator=(const ReferenceEventQueue&) = delete;

  // Current simulated time. Only advances inside Run*().
  TimeNs now() const { return now_; }

  // Schedules `cb` to run at absolute time `when`. Scheduling in the past is
  // clamped to `now()` (the event runs before the clock next advances).
  void ScheduleAt(TimeNs when, Callback cb) {
    if (when < now_) {
      when = now_;
    }
    heap_.push(Event{when, next_seq_++, std::move(cb)});
  }

  // Schedules `cb` to run `delay` nanoseconds from now. A delay that would
  // overflow TimeNs saturates to kTimeNsMax instead of wrapping into the past.
  void ScheduleAfter(TimeNs delay, Callback cb) {
    const TimeNs when = delay > kTimeNsMax - now_ ? kTimeNsMax : now_ + delay;
    ScheduleAt(when, std::move(cb));
  }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // Events scheduled exactly at `deadline` are executed. Returns the number
  // of events executed.
  std::uint64_t RunUntil(TimeNs deadline);

  // Runs every pending event (including ones scheduled by executed events).
  // Intended for tests; a self-rescheduling event would never terminate.
  std::uint64_t RunAll();

  // Number of events currently pending.
  std::size_t pending() const { return heap_.size(); }

  // Total number of events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_; }

  // API parity with the calendar EventQueue so FSIO_EVENTQ_REFERENCE builds
  // compile unchanged. The reference queue allocates per event via
  // std::function and does not track it: allocations() always reads 0 and
  // Reserve() is a no-op.
  std::uint64_t allocations() const { return 0; }
  void Reserve(std::size_t /*events*/) {}
  std::size_t arena_capacity() const { return 0; }
  // No overflow heap either: always 0.
  std::uint64_t overflow_inserts() const { return 0; }

 private:
  struct Event {
    TimeNs when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_SIMCORE_REFERENCE_EVENT_QUEUE_H_

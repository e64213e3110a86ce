// Calendar-queue event core tests: ordering guarantees the EventQueue must
// share bit-for-bit with the reference scheduler — same-timestamp FIFO
// chains, past-clamp ordering, bucket rollover at horizon boundaries,
// far-future overflow promotion, leads at the horizon's edge, a parked
// clock — plus the arena-allocation contract (Reserve(), allocations()),
// the overflow-heap count and the ScheduleAfter overflow saturation
// regression. The randomized differential section replays identical
// schedules through EventQueue and ReferenceEventQueue and requires
// identical execution sequences.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/simcore/event_queue.h"
#include "src/simcore/reference_event_queue.h"
#include "src/simcore/time.h"

namespace fsio {
namespace {

// Calendar geometry, from the queue under test (the reference queue
// mirrors it): the boundary tests below straddle multiples of the horizon
// and lead by whole buckets around it.
constexpr TimeNs kBucketNs = EventQueue::kBucketWidthNs;
constexpr TimeNs kCalendarSpanNs = EventQueue::kHorizonNs;
static_assert(kBucketNs == ReferenceEventQueue::kBucketWidthNs &&
                  kCalendarSpanNs == ReferenceEventQueue::kHorizonNs,
              "both queues must report one geometry");

TEST(EventCoreOrdering, SameTimestampFifoChains) {
  // Three interleaved chains scheduling at one timestamp: execution must be
  // exactly global insertion order, including events inserted by running
  // events at the already-current time.
  EventQueue q;
  std::vector<int> order;
  for (int chain = 0; chain < 3; ++chain) {
    q.ScheduleAt(50, [&q, &order, chain] {
      order.push_back(chain);
      q.ScheduleAt(50, [&order, chain] { order.push_back(10 + chain); });
    });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(q.now(), 50u);
  EXPECT_EQ(q.executed(), 6u);
}

TEST(EventCoreOrdering, PastClampRunsBeforeClockAdvances) {
  // Scheduling into the past clamps to now(): the clamped event runs after
  // events already pending at now() (it got a later sequence number) but
  // before anything at a later timestamp.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(100, [&q, &order] {
    order.push_back(1);
    q.ScheduleAt(100, [&order] { order.push_back(2); });
    q.ScheduleAt(30, [&order] { order.push_back(3); });  // the past: clamped
    q.ScheduleAt(101, [&order] { order.push_back(4); });
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventCoreOrdering, BucketRolloverAtEpochBoundaries) {
  // Events placed just below, at, and just above multiples of the calendar
  // span land in different windows of the wrapped bucket array; execution
  // order must still be globally sorted with FIFO ties.
  EventQueue q;
  std::vector<std::pair<TimeNs, int>> ran;
  int tag = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const TimeNs base = static_cast<TimeNs>(epoch) * kCalendarSpanNs;
    for (const TimeNs off : {kCalendarSpanNs - 1, TimeNs{0}, TimeNs{1}, TimeNs{63},
                             TimeNs{64}}) {
      const TimeNs when = base + off;
      q.ScheduleAt(when, [&ran, when, t = tag++] { ran.emplace_back(when, t); });
    }
  }
  q.RunAll();
  ASSERT_EQ(ran.size(), 20u);
  for (std::size_t i = 1; i < ran.size(); ++i) {
    const bool ordered = ran[i - 1].first < ran[i].first ||
                         (ran[i - 1].first == ran[i].first &&
                          ran[i - 1].second < ran[i].second);
    EXPECT_TRUE(ordered) << "out of order at " << i;
  }
}

TEST(EventCoreOrdering, FarFutureOverflowPromotion) {
  // Events far beyond the calendar window sit in the overflow tier until the
  // window slides onto them; interleave near and far work across several
  // window-spans and verify global order survives every promotion.
  EventQueue q;
  std::vector<TimeNs> ran;
  for (int i = 0; i < 6; ++i) {
    const TimeNs far = static_cast<TimeNs>(i + 2) * 7 * kCalendarSpanNs + i;
    q.ScheduleAt(far, [&q, &ran, far] {
      ran.push_back(far);
      // Refill the near future from inside a promoted event.
      q.ScheduleAfter(3, [&q, &ran] { ran.push_back(q.now()); });
    });
    q.ScheduleAt(static_cast<TimeNs>(i) * 17, [&q, &ran] { ran.push_back(q.now()); });
  }
  q.RunAll();
  ASSERT_EQ(ran.size(), 18u);
  for (std::size_t i = 1; i < ran.size(); ++i) {
    EXPECT_LE(ran[i - 1], ran[i]);
  }
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventCoreOrdering, RunUntilParksClockBetweenDistantEvents) {
  // RunUntil deadlines that land inside empty calendar regions (and inside
  // the overflow tier's span) must not disturb ordering or the clock.
  EventQueue q;
  std::vector<TimeNs> ran;
  q.ScheduleAt(10, [&ran, &q] { ran.push_back(q.now()); });
  q.ScheduleAt(5 * kCalendarSpanNs, [&ran, &q] { ran.push_back(q.now()); });
  EXPECT_EQ(q.RunUntil(kCalendarSpanNs), 1u);
  EXPECT_EQ(q.now(), kCalendarSpanNs);
  EXPECT_EQ(q.RunUntil(3 * kCalendarSpanNs), 0u);
  EXPECT_EQ(q.now(), 3 * kCalendarSpanNs);
  EXPECT_EQ(q.RunUntil(10 * kCalendarSpanNs), 1u);
  EXPECT_EQ(ran, (std::vector<TimeNs>{10, 5 * kCalendarSpanNs}));
}

// --- ScheduleAfter overflow saturation (satellite regression test) -------

TEST(EventCoreSaturation, ScheduleAfterSaturatesInsteadOfWrapping) {
  // Before the fix, now + delay wrapped modulo 2^64 and the event fired in
  // the past (immediately, via the clamp). It must instead park at
  // kTimeNsMax — reachable only by an explicit run to the end of time.
  EventQueue q;
  q.ScheduleAt(1000, [] {});
  q.RunAll();
  ASSERT_EQ(q.now(), 1000u);
  bool ran = false;
  q.ScheduleAfter(kTimeNsMax - 5, [&ran] { ran = true; });  // now + delay > max
  EXPECT_EQ(q.RunUntil(2000), 0u) << "saturated event must not fire early";
  EXPECT_FALSE(ran);
  EXPECT_EQ(q.pending(), 1u);
  q.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), kTimeNsMax);
}

TEST(EventCoreSaturation, ReferenceQueueSaturatesIdentically) {
  ReferenceEventQueue q;
  q.ScheduleAt(1000, [] {});
  q.RunAll();
  bool ran = false;
  q.ScheduleAfter(kTimeNsMax - 5, [&ran] { ran = true; });
  EXPECT_EQ(q.RunUntil(2000), 0u);
  EXPECT_FALSE(ran);
  q.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.now(), kTimeNsMax);
}

// --- Arena allocation contract (satellite) -------------------------------

#ifndef FSIO_EVENTQ_REFERENCE
// The reference queue has no arena: every closure is a heap-backed
// std::function, so these two arena tests are calendar-queue-only.
TEST(EventCoreArena, SteadyStateSchedulingDoesNotAllocate) {
  EventQueue q;
  q.Reserve(4096);
  EXPECT_GE(q.arena_capacity(), 4096u);
  const std::uint64_t after_reserve = q.allocations();
  // Churn far more events than the reserved population, but never more than
  // 4096 pending at once: the arena recycles records and must not grow.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 2000; ++i) {
      q.ScheduleAfter(static_cast<TimeNs>(i % 97), [] {});
    }
    q.RunAll();
  }
  EXPECT_EQ(q.allocations(), after_reserve);
  EXPECT_EQ(q.executed(), 100000u);
}
#endif

TEST(EventCoreArena, ReserveIsIdempotentAndMonotonic) {
  EventQueue q;
  q.Reserve(100);
  const std::size_t cap = q.arena_capacity();
  const std::uint64_t allocs = q.allocations();
  q.Reserve(50);  // already satisfied: no growth
  EXPECT_EQ(q.arena_capacity(), cap);
  EXPECT_EQ(q.allocations(), allocs);
  q.Reserve(10 * cap);
  EXPECT_GE(q.arena_capacity(), 10 * cap);
}

#ifndef FSIO_EVENTQ_REFERENCE
TEST(EventCoreArena, OversizedClosureTakesCountedHeapFallback) {
  EventQueue q;
  q.Reserve(16);
  const std::uint64_t base = q.allocations();
  std::array<std::uint64_t, 64> big{};  // 512 B capture: cannot ride inline
  big[0] = 7;
  std::uint64_t seen = 0;
  q.ScheduleAt(1, [big, &seen] { seen = big[0]; });
  EXPECT_EQ(q.allocations(), base + 1);
  q.RunAll();
  EXPECT_EQ(seen, 7u);
  // Inline-sized closures stay allocation-free.
  q.ScheduleAt(2, [&seen] { seen = 8; });
  q.RunAll();
  EXPECT_EQ(q.allocations(), base + 1);
  EXPECT_EQ(seen, 8u);
}
#endif

// --- Randomized differential vs the reference scheduler ------------------

// Deterministic 64-bit generator (splitmix64): the schedule must be a pure
// function of the seed so failures replay.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

// Drives one queue implementation through a seeded schedule where events
// reschedule follow-ups (same time, near future, past, far future), and
// records (time, tag) of every execution plus periodic RunUntil stops.
template <typename Queue>
std::vector<std::pair<TimeNs, int>> DriveSchedule(std::uint64_t seed) {
  Queue q;
  SplitMix rng(seed);
  std::vector<std::pair<TimeNs, int>> trace;
  int tag = 0;
  // Recursive rescheduling up to a bounded total so RunAll terminates.
  struct Ctx {
    Queue* q;
    SplitMix* rng;
    std::vector<std::pair<TimeNs, int>>* trace;
    int* tag;
    int budget = 4000;
  } ctx{&q, &rng, &trace, &tag};

  struct Spawner {
    static void Spawn(Ctx* ctx, TimeNs when) {
      const int t = (*ctx->tag)++;
      ctx->q->ScheduleAt(when, [ctx, t] {
        ctx->trace->emplace_back(ctx->q->now(), t);
        if (--ctx->budget <= 0) {
          return;
        }
        const std::uint64_t kind = ctx->rng->Below(100);
        if (kind < 35) {
          Spawn(ctx, ctx->q->now());  // same-timestamp chain
        } else if (kind < 55) {
          const TimeNs back = ctx->rng->Below(500);
          Spawn(ctx, ctx->q->now() > back ? ctx->q->now() - back : 0);  // past
        } else if (kind < 90) {
          Spawn(ctx, ctx->q->now() + ctx->rng->Below(3 * kCalendarSpanNs));
        } else {
          Spawn(ctx, ctx->q->now() + 5 * kCalendarSpanNs +
                         ctx->rng->Below(40 * kCalendarSpanNs));  // overflow tier
        }
      });
    }
  };

  SplitMix layout(seed ^ 0xabcdef);
  for (int i = 0; i < 64; ++i) {
    Spawner::Spawn(&ctx, layout.Below(2 * kCalendarSpanNs));
  }
  // Mix RunUntil stops (exercising window slides with the clock parked) with
  // a final drain. Between stops the caller schedules too, into the buckets
  // around the parked clock: at now(), inside the bucket holding the
  // deadline (possibly in the past, so clamped), and within one bucket
  // after it. Every third stop lands inside an occupied bucket, before the
  // event that occupies it.
  TimeNs deadline = 0;
  TimeNs occupied = 0;  // an outside event scheduled at the last stop
  for (int i = 0; i < 24; ++i) {
    switch (i % 3) {
      case 0:
        deadline += layout.Below(10 * kCalendarSpanNs);
        break;
      case 1:
        deadline += layout.Below(4 * kBucketNs);
        break;
      default:
        deadline = occupied - occupied % kBucketNs + layout.Below(occupied % kBucketNs + 1);
        break;
    }
    q.RunUntil(deadline);
    trace.emplace_back(q.now(), -1);  // clock checkpoints must match too
    const TimeNs bucket_start = deadline - deadline % kBucketNs;
    Spawner::Spawn(&ctx, q.now());
    Spawner::Spawn(&ctx, bucket_start + layout.Below(kBucketNs));
    occupied = bucket_start + kBucketNs + layout.Below(kBucketNs);
    Spawner::Spawn(&ctx, occupied);
  }
  q.RunAll();
  trace.emplace_back(q.now(), -2);
  return trace;
}

TEST(EventCoreDifferential, MatchesReferenceQueueOnRandomSchedules) {
  for (const std::uint64_t seed : {1ull, 42ull, 0xfeedull, 7777ull, 123456789ull}) {
    const auto calendar = DriveSchedule<EventQueue>(seed);
    const auto reference = DriveSchedule<ReferenceEventQueue>(seed);
    ASSERT_EQ(calendar.size(), reference.size()) << "seed " << seed;
    for (std::size_t i = 0; i < calendar.size(); ++i) {
      ASSERT_EQ(calendar[i], reference[i]) << "seed " << seed << " step " << i;
    }
  }
}

// Lead-time shapes from the datapath. Every executed event records
// (now, tag) and schedules one successor `lead(rng)` ahead until `budget`
// events have run; the caller advances in RunUntil slices of `slice_ns`.
// With `outside` set, the caller also schedules between slices: at now()
// and one lead ahead of it, from a clock parked at the slice's end.
template <typename Queue, typename Lead>
std::vector<std::pair<TimeNs, int>> DriveLeads(Queue& q, std::uint64_t seed, Lead lead,
                                               TimeNs slice_ns, bool outside) {
  SplitMix rng(seed);
  std::vector<std::pair<TimeNs, int>> trace;
  struct Ctx {
    Queue* q;
    SplitMix* rng;
    Lead* lead;
    std::vector<std::pair<TimeNs, int>>* trace;
    int tag = 0;
    int budget = 20000;
  } ctx{&q, &rng, &lead, &trace};
  struct Spawner {
    static void Spawn(Ctx* ctx, TimeNs when) {
      const int t = ctx->tag++;
      ctx->q->ScheduleAt(when, [ctx, t] {
        ctx->trace->emplace_back(ctx->q->now(), t);
        if (--ctx->budget > 0) {
          Spawn(ctx, ctx->q->now() + (*ctx->lead)(*ctx->rng));
        }
      });
    }
  };
  for (int i = 0; i < 64; ++i) {
    Spawner::Spawn(&ctx, rng.Below(1000));
  }
  while (ctx.budget > 0 && q.pending() > 0) {
    q.RunUntil(q.now() + slice_ns);
    trace.emplace_back(q.now(), -1);
    if (outside) {
      Spawner::Spawn(&ctx, q.now());
      Spawner::Spawn(&ctx, q.now() + lead(rng));
    }
  }
  q.RunAll();
  trace.emplace_back(q.now(), -2);
  return trace;
}

template <typename Lead>
void ExpectLeadsMatchReference(Lead lead, TimeNs slice_ns) {
  for (const std::uint64_t seed : {3ull, 99ull, 0xbeefull}) {
    for (const bool outside : {false, true}) {
      EventQueue calendar_q;
      ReferenceEventQueue reference_q;
      const auto calendar = DriveLeads(calendar_q, seed, lead, slice_ns, outside);
      const auto reference = DriveLeads(reference_q, seed, lead, slice_ns, outside);
      ASSERT_EQ(calendar.size(), reference.size()) << "seed " << seed;
      for (std::size_t i = 0; i < calendar.size(); ++i) {
        ASSERT_EQ(calendar[i], reference[i])
            << "seed " << seed << " outside " << outside << " step " << i;
      }
    }
  }
}

// A NIC egress backlog: a dense near-term stream where ~15% of events lie
// 400-600 us ahead, plus 1-2 ms retransmit timers past the horizon.
TimeNs BacklogLead(SplitMix& rng) {
  const std::uint64_t kind = rng.Below(100);
  if (kind < 10) {
    return 0;
  }
  if (kind < 80) {
    return rng.Below(2000);
  }
  if (kind < 95) {
    return 400'000 + rng.Below(200'001);
  }
  return 1'000'000 + rng.Below(1'000'001);
}

TEST(EventCoreDifferential, BacklogStreamMatchesReference) {
  ExpectLeadsMatchReference(BacklogLead, 50'000);
}

// Leads of exactly horizon - 1, horizon and horizon + 1 buckets, each with
// a sub-bucket offset, mixed with same-bucket work: the first two stay in
// the calendar from a running event, the last takes the overflow heap, and
// all three land on slots the rolling horizon just freed.
TimeNs HorizonEdgeLead(SplitMix& rng) {
  const std::uint64_t kind = rng.Below(8);
  if (kind < 2) {
    return rng.Below(kBucketNs);
  }
  const TimeNs buckets = kCalendarSpanNs / kBucketNs + (kind % 3) - 1;
  return buckets * kBucketNs + (kind < 5 ? 0 : rng.Below(kBucketNs));
}

TEST(EventCoreDifferential, HorizonEdgeLeadsMatchReference) {
  ExpectLeadsMatchReference(HorizonEdgeLead, kCalendarSpanNs / 3);
}

TEST(EventCoreOrdering, ParkedClockSchedulesAfterFarRunUntil) {
  // RunUntil parks the clock far past the activated bucket with work still
  // pending in the calendar and in the overflow heap; the caller then
  // schedules a little, a bucket, and about a horizon past now().
  auto drive = [](auto& q) {
    std::vector<std::pair<TimeNs, int>> trace;
    int tag = 0;
    auto at = [&q, &trace, &tag](TimeNs when) {
      q.ScheduleAt(when, [&q, &trace, t = tag++] { trace.emplace_back(q.now(), t); });
    };
    at(5);
    at(7 * kCalendarSpanNs + 3);   // pending behind the parked clock's horizon
    at(20 * kCalendarSpanNs + 9);  // overflow
    q.RunUntil(10);
    TimeNs parked = 10;
    for (const TimeNs jump : {3 * kCalendarSpanNs + 17, 6 * kCalendarSpanNs,
                              kCalendarSpanNs / 2 + 1}) {
      parked += jump;
      q.RunUntil(parked);
      trace.emplace_back(q.now(), -1);
      for (const TimeNs delta : {TimeNs{0}, TimeNs{1}, kBucketNs - 1, kBucketNs,
                                 kCalendarSpanNs - 1, kCalendarSpanNs,
                                 kCalendarSpanNs + kBucketNs}) {
        at(q.now() + delta);
      }
      at(q.now() - 1);  // the past: clamped to now()
    }
    q.RunAll();
    trace.emplace_back(q.now(), -2);
    return trace;
  };
  EventQueue calendar_q;
  ReferenceEventQueue reference_q;
  const auto calendar = drive(calendar_q);
  EXPECT_EQ(calendar, drive(reference_q));
  for (std::size_t i = 1; i < calendar.size(); ++i) {
    EXPECT_LE(calendar[i - 1].first, calendar[i].first) << "step " << i;
  }
}

// --- Overflow-heap count --------------------------------------------------

TEST(EventCoreOverflow, LeadsWithinHorizonNeverOverflow) {
  // Every lead, up to and including a whole horizon, scheduled by a running
  // event lands in the calendar, also with RunUntil slices in between.
  EventQueue q;
  auto lead = [](SplitMix& rng) {
    const std::uint64_t kind = rng.Below(4);
    return kind == 0 ? kCalendarSpanNs - rng.Below(2 * kBucketNs)
                     : rng.Below(kCalendarSpanNs + 1);
  };
  DriveLeads(q, 17, lead, kCalendarSpanNs / 5, /*outside=*/false);
  EXPECT_GT(q.executed(), 20000u);
  EXPECT_EQ(q.overflow_inserts(), 0u);
}

#ifndef FSIO_EVENTQ_REFERENCE
TEST(EventCoreOverflow, LeadsPastHorizonOverflowOnce) {
  // The reference queue has no overflow heap; here each event scheduled a
  // bucket past the horizon is counted once, however it is later promoted.
  EventQueue q;
  q.ScheduleAt(0, [&q] {
    for (int i = 0; i < 10; ++i) {
      q.ScheduleAfter(kCalendarSpanNs + kBucketNs + static_cast<TimeNs>(i), [] {});
    }
    q.ScheduleAfter(kCalendarSpanNs, [] {});
  });
  q.RunAll();
  EXPECT_EQ(q.overflow_inserts(), 10u);
  EXPECT_EQ(q.executed(), 12u);
}
#endif

}  // namespace
}  // namespace fsio

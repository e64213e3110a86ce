// Unit tests for the discrete-event core: clock semantics, ordering
// guarantees, deterministic RNG behaviour, and the FIFO ring.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/simcore/event_queue.h"
#include "src/simcore/fifo_ring.h"
#include "src/simcore/rng.h"
#include "src/simcore/time.h"

namespace fsio {
namespace {

TEST(EventQueueTest, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0u);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTimestampRunsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, RunUntilStopsAtDeadlineInclusive) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAt(100, [&] { ++ran; });
  q.ScheduleAt(101, [&] { ++ran; });
  EXPECT_EQ(q.RunUntil(100), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(q.now(), 100u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockToDeadlineWhenIdle) {
  EventQueue q;
  q.RunUntil(500);
  EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) {
      q.ScheduleAfter(10, chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunAll();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueueTest, SchedulingInThePastClampsToNow) {
  EventQueue q;
  TimeNs observed = ~0ULL;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(50, [&] { observed = q.now(); });  // in the past
  });
  q.RunAll();
  EXPECT_EQ(observed, 100u);
}

TEST(EventQueueTest, PastClampedEventRunsAfterEventsAlreadyQueuedAtNow) {
  // A past-time ScheduleAt clamps to now() and takes a fresh insertion
  // sequence number, so it runs after events already queued for the current
  // instant — clamping cannot reorder it ahead of earlier work.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(100, [&] {
    q.ScheduleAt(100, [&] { order.push_back(1); });  // already "at now"
    q.ScheduleAt(10, [&] { order.push_back(2); });   // past, clamps to 100
  });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, CountsExecutedEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) {
    q.ScheduleAt(static_cast<TimeNs>(i), [] {});
  }
  q.RunAll();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(TimeTest, SerializationDelayBasics) {
  // 128 Gbps = 16 bytes/ns: 256 bytes take 16 ns.
  EXPECT_EQ(SerializationDelayNs(256, 128.0), 16u);
  EXPECT_EQ(SerializationDelayNs(0, 128.0), 0u);
  // Sub-nanosecond transfers round up to 1 ns so events progress.
  EXPECT_EQ(SerializationDelayNs(1, 128.0), 1u);
}

TEST(TimeTest, GbpsConversionRoundTrips) {
  EXPECT_DOUBLE_EQ(GbpsToBytesPerNs(100.0), 12.5);
  EXPECT_DOUBLE_EQ(BytesPerNsToGbps(12.5), 100.0);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExp(100.0);
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 100.0, 5.0);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

// FifoRing against std::deque over random pushes and pops, starting from a
// capacity of 3 so the ring wraps and grows many times. Front-to-back
// indexing must list the deque's elements in order.
TEST(FifoRingTest, MatchesDeque) {
  FifoRing<std::uint64_t> ring(3);
  std::deque<std::uint64_t> ref;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    if (ref.empty() || rng.NextBool(0.55)) {
      ring.push_back(i);
      ref.push_back(i);
    } else {
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front()) << "op " << i;
    }
    if (i % 97 == 0) {
      for (std::size_t k = 0; k < ref.size(); ++k) {
        ASSERT_EQ(ring[k], ref[k]) << "op " << i << " index " << k;
      }
    }
  }
  EXPECT_GT(ring.capacity(), 3u);
}

TEST(FifoRingTest, StaysAtCapacityWhileNotFull) {
  FifoRing<int> ring(4);
  for (int i = 0; i < 100; ++i) {
    ring.push_back(i);
    if (ring.size() == 4) {
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.front(), 97);
}

// A capacity request that is not a power of two rounds up (the RC-buffer
// ring asks for 26 entries by default): the ring holds 32 without
// allocating, wraps across the mask boundary in deque order, and grows past
// 32 from a wrapped state without losing that order.
TEST(FifoRingTest, RoundsCapacityUpAndWrapsAcrossMask) {
  FifoRing<std::uint64_t> ring(26);
  EXPECT_EQ(ring.capacity(), 32u);
  std::deque<std::uint64_t> ref;
  std::uint64_t next = 0;
  auto check = [&ring, &ref](const char* when) {
    ASSERT_EQ(ring.size(), ref.size()) << when;
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ASSERT_EQ(ring[k], ref[k]) << when << " index " << k;
    }
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front()) << when;
    }
  };
  // Hold 20-32 elements while the head laps the 32 slots several times.
  for (int round = 0; round < 200; ++round) {
    while (ref.size() < 20 + static_cast<std::size_t>(round % 13)) {
      ring.push_back(next);
      ref.push_back(next++);
    }
    for (int pops = 0; pops < 7; ++pops) {
      ring.pop_front();
      ref.pop_front();
    }
    check("lapping");
  }
  EXPECT_EQ(ring.capacity(), 32u) << "never more than 32 queued";
  // Fill the wrapped ring to 32, then push past it.
  while (ref.size() < 40) {
    ring.push_back(next);
    ref.push_back(next++);
  }
  EXPECT_EQ(ring.capacity(), 64u);
  check("grown");
  while (!ref.empty()) {
    ring.pop_front();
    ref.pop_front();
    check("draining");
  }
}

// Move-only elements: push_back moves in, growth moves across, front()
// hands the element out, clear() destroys what is still queued.
TEST(FifoRingTest, MovesOwningElements) {
  FifoRing<std::unique_ptr<int>> ring(2);
  for (int i = 0; i < 5; ++i) {
    ring.push_back(std::make_unique<int>(i));
  }
  EXPECT_EQ(ring.capacity(), 8u);
  std::unique_ptr<int> first = std::move(ring.front());
  ring.pop_front();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, 0);
  EXPECT_EQ(*ring[0], 1);
  EXPECT_EQ(*ring[3], 4);

  auto watched = std::make_shared<int>(7);
  FifoRing<std::shared_ptr<int>> owners(4);
  owners.push_back(watched);
  owners.push_back(watched);
  EXPECT_EQ(watched.use_count(), 3);
  owners.clear();
  EXPECT_TRUE(owners.empty());
  EXPECT_EQ(watched.use_count(), 1);
  owners.push_back(watched);
  EXPECT_EQ(owners.front(), watched);
}

}  // namespace
}  // namespace fsio

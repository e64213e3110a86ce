// Unit tests for the memory system model and the physical frame allocator.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

TEST(MemorySystemTest, UncontendedReadCostsBaseLatency) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 90;
  MemorySystem mem(config, &stats);
  EXPECT_EQ(mem.Read(1000, 64), 1090u);
}

TEST(MemorySystemTest, SmallReadsRoundUpToCacheline) {
  StatsRegistry stats;
  MemorySystem mem(MemoryConfig{}, &stats);
  mem.Read(0, 8);
  EXPECT_EQ(mem.total_bytes(), kCachelineSize);
}

TEST(MemorySystemTest, BankContentionDelaysBurst) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 100;
  config.parallel_banks = 2;
  config.bandwidth_gbps = 64;  // 8 B/ns total, 4 B/ns per bank
  MemorySystem mem(config, &stats);
  // 6 reads of 256 B at t=0 on 2 banks: occupancy 64 ns each -> the last
  // pair is granted at t=128.
  TimeNs last = 0;
  for (int i = 0; i < 6; ++i) {
    last = mem.Read(0, 256);
  }
  EXPECT_EQ(last, 228u);
  EXPECT_GT(stats.Value("mem.queued_ns"), 0u);
}

TEST(MemorySystemTest, EarliestFreeBankIsChosen) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 100;
  config.parallel_banks = 4;
  MemorySystem mem(config, &stats);
  // A far-future posted write must not delay a near-term read: other banks
  // are still free.
  mem.Post(1'000'000, 4096);
  EXPECT_EQ(mem.Read(0, 64), 100u);
}

TEST(MemorySystemTest, PostConsumesBandwidthOnly) {
  StatsRegistry stats;
  MemoryConfig config;
  config.parallel_banks = 1;
  config.bandwidth_gbps = 8;  // 1 B/ns
  MemorySystem mem(config, &stats);
  mem.Post(0, 1000);  // occupies the single bank for 1000 ns
  const TimeNs done = mem.Read(0, 64);
  EXPECT_GE(done, 1000u + config.access_latency_ns);
}

// Scan-based oracle: the memory model before the sorted bank ring, kept
// verbatim in behaviour — a linear scan for the earliest-free bank (lowest
// index on ties) and the occupancy recomputed on every access.
class ScanMemorySystem {
 public:
  ScanMemorySystem(const MemoryConfig& config, StatsRegistry* stats)
      : config_(config),
        bytes_per_ns_(GbpsToBytesPerNs(config.bandwidth_gbps)),
        bank_free_(config.parallel_banks == 0 ? 1 : config.parallel_banks, 0),
        accesses_(stats->Get("mem.accesses")),
        queued_ns_(stats->Get("mem.queued_ns")) {}

  TimeNs Read(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }
  TimeNs Write(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }
  void Post(TimeNs start, std::uint64_t bytes) { Access(start, bytes); }

  TimeNs ReadWalkSequence(TimeNs start, int reads, TimeNs step_overhead_ns,
                          std::uint64_t bytes_per_read) {
    if (reads <= 0) {
      return start;
    }
    std::uint64_t bytes = bytes_per_read;
    if (bytes < kCachelineSize) {
      bytes = kCachelineSize;
    }
    const double per_bank_bw = bytes_per_ns_ / static_cast<double>(bank_free_.size());
    auto occupancy = static_cast<TimeNs>(static_cast<double>(bytes) / per_bank_bw);
    if (occupancy == 0) {
      occupancy = 1;
    }
    total_bytes_ += bytes * static_cast<std::uint64_t>(reads);
    accesses_->Add(static_cast<std::uint64_t>(reads));
    TimeNs t = start;
    for (int i = 0; i < reads; ++i) {
      const TimeNs issue = t + step_overhead_ns;
      std::size_t best = 0;
      for (std::size_t b = 1; b < bank_free_.size(); ++b) {
        if (bank_free_[b] < bank_free_[best]) {
          best = b;
        }
      }
      TimeNs& bank = bank_free_[best];
      const TimeNs grant = bank > issue ? bank : issue;
      if (grant > issue) {
        queued_ns_->Add(grant - issue);
      }
      bank = grant + occupancy;
      t = grant + config_.access_latency_ns;
    }
    return t;
  }

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  TimeNs Access(TimeNs start, std::uint64_t bytes) {
    if (bytes < kCachelineSize) {
      bytes = kCachelineSize;
    }
    total_bytes_ += bytes;
    accesses_->Add();
    const double per_bank_bw = bytes_per_ns_ / static_cast<double>(bank_free_.size());
    auto occupancy = static_cast<TimeNs>(static_cast<double>(bytes) / per_bank_bw);
    if (occupancy == 0) {
      occupancy = 1;
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < bank_free_.size(); ++i) {
      if (bank_free_[i] < bank_free_[best]) {
        best = i;
      }
    }
    TimeNs& bank = bank_free_[best];
    const TimeNs grant = bank > start ? bank : start;
    if (grant > start) {
      queued_ns_->Add(grant - start);
    }
    bank = grant + occupancy;
    return grant + config_.access_latency_ns;
  }

  MemoryConfig config_;
  double bytes_per_ns_;
  std::vector<TimeNs> bank_free_;
  std::uint64_t total_bytes_ = 0;
  Counter* accesses_;
  Counter* queued_ns_;
};

struct MemGeometry {
  std::uint32_t banks;
  double bandwidth_gbps;
};

// Prints the geometry by value, so test names do not depend on padding bytes.
void PrintTo(const MemGeometry& g, std::ostream* os) {
  *os << g.banks << " banks, " << g.bandwidth_gbps << " Gbps";
}

class MemoryLockstep : public ::testing::TestWithParam<MemGeometry> {};

// Drives the memory model and the scan oracle with the same seeded ops and
// compares every return value and counter after each op. Starts sometimes
// go backwards in time, and bursts reuse one timestamp so that several banks
// tie for earliest-free.
TEST_P(MemoryLockstep, MatchesScanReference) {
  MemoryConfig config;
  config.parallel_banks = GetParam().banks;
  config.bandwidth_gbps = GetParam().bandwidth_gbps;
  StatsRegistry stats;
  StatsRegistry ref_stats;
  MemorySystem mem(config, &stats);
  ScanMemorySystem ref(config, &ref_stats);
  Rng rng(77 + config.parallel_banks);
  const std::uint64_t kSizes[] = {1, 8, 64, 100, 256, 4096};
  TimeNs now = 1000;
  int burst_left = 0;
  for (int i = 0; i < 20000; ++i) {
    if (burst_left > 0) {
      --burst_left;  // same timestamp as the previous op
    } else if (rng.NextBool(0.05)) {
      burst_left = 1 + static_cast<int>(rng.NextBelow(12));
    } else {
      now += rng.NextBelow(64);
    }
    TimeNs start = now;
    if (rng.NextBool(0.15)) {
      start = now > 500 ? now - rng.NextBelow(500) : 0;  // behind the clock
    }
    const std::size_t pick = rng.NextBelow(7);
    const std::uint64_t bytes = pick < 6 ? kSizes[pick] : 4096 + rng.NextBelow(8192);
    const int op = static_cast<int>(rng.NextBelow(4));
    if (op == 0) {
      ASSERT_EQ(mem.Read(start, bytes), ref.Read(start, bytes)) << "op " << i;
    } else if (op == 1) {
      ASSERT_EQ(mem.Write(start, bytes), ref.Write(start, bytes)) << "op " << i;
    } else if (op == 2) {
      mem.Post(start, bytes);
      ref.Post(start, bytes);
    } else {
      const int reads = static_cast<int>(rng.NextBelow(5));
      const TimeNs step = rng.NextBelow(40);
      const std::uint64_t per_read = kSizes[rng.NextBelow(5)];
      ASSERT_EQ(mem.ReadWalkSequence(start, reads, step, per_read),
                ref.ReadWalkSequence(start, reads, step, per_read))
          << "op " << i;
    }
    ASSERT_EQ(mem.total_bytes(), ref.total_bytes()) << "op " << i;
    ASSERT_EQ(stats.Value("mem.accesses"), ref_stats.Value("mem.accesses")) << "op " << i;
    ASSERT_EQ(stats.Value("mem.queued_ns"), ref_stats.Value("mem.queued_ns")) << "op " << i;
  }
  // The mix must have queued: otherwise the bank choice was never tested.
  EXPECT_GT(stats.Value("mem.queued_ns"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Banks, MemoryLockstep,
                         ::testing::Values(MemGeometry{1, 375.0}, MemGeometry{2, 64.0},
                                           MemGeometry{3, 375.0}, MemGeometry{3, 8.0},
                                           MemGeometry{8, 375.0}, MemGeometry{8, 64.0}),
                         [](const ::testing::TestParamInfo<MemGeometry>& info) {
                           return std::to_string(info.param.banks) + "banks_" +
                                  std::to_string(static_cast<int>(info.param.bandwidth_gbps)) +
                                  "gbps";
                         });

// Degenerate configs: a bandwidth that is not > 0 would make every
// occupancy a cast of inf or NaN, so the constructor refuses it.
TEST(MemorySystemTest, RejectsNonPositiveBandwidth) {
  for (const double gbps : {0.0, -1.0, std::nan("")}) {
    StatsRegistry stats;
    MemoryConfig config;
    config.bandwidth_gbps = gbps;
    try {
      MemorySystem mem(config, &stats);
      ADD_FAILURE() << "accepted bandwidth_gbps " << gbps;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bandwidth_gbps"), std::string::npos);
    }
  }
}

TEST(MemorySystemTest, RejectsZeroBanks) {
  StatsRegistry stats;
  MemoryConfig config;
  config.parallel_banks = 0;
  try {
    MemorySystem mem(config, &stats);
    ADD_FAILURE() << "accepted parallel_banks 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("parallel_banks"), std::string::npos);
  }
}

TEST(FrameAllocatorTest, AllocatesUniquePageAlignedFrames) {
  FrameAllocator frames;
  std::set<PhysAddr> seen;
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr addr = frames.AllocFrame();
    EXPECT_EQ(addr % kPageSize, 0u);
    EXPECT_TRUE(seen.insert(addr).second);
  }
  EXPECT_EQ(frames.live(), 1000u);
}

TEST(FrameAllocatorTest, FreeListRecyclesLifo) {
  FrameAllocator frames;
  const PhysAddr a = frames.AllocFrame();
  const PhysAddr b = frames.AllocFrame();
  frames.FreeFrame(a);
  frames.FreeFrame(b);
  EXPECT_EQ(frames.AllocFrame(), b);
  EXPECT_EQ(frames.AllocFrame(), a);
}

TEST(FrameAllocatorTest, ScrambledFramesAreStillUnique) {
  FrameAllocator frames(/*scramble=*/true, /*seed=*/7);
  std::set<PhysAddr> seen;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(seen.insert(frames.AllocFrame()).second);
  }
}

TEST(FrameAllocatorTest, LiveCountTracksFrees) {
  FrameAllocator frames;
  const PhysAddr a = frames.AllocFrame();
  EXPECT_EQ(frames.live(), 1u);
  frames.FreeFrame(a);
  EXPECT_EQ(frames.live(), 0u);
  EXPECT_EQ(frames.allocated(), 1u);
}

}  // namespace
}  // namespace fsio

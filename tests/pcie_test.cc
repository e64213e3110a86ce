// Tests for the PCIe link / root-complex model: TLP chopping, flow control,
// in-order commit with lookahead translation, and read parallelism.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/faults/fault_injector.h"
#include "src/iommu/iommu.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

class PcieTest : public ::testing::Test {
 protected:
  void Build(bool with_iommu, PcieConfig pcie_config = PcieConfig{},
             IommuConfig iommu_config = IommuConfig{}) {
    stats_ = std::make_unique<StatsRegistry>();
    MemoryConfig mem_config;
    mem_config.access_latency_ns = 100;
    memory_ = std::make_unique<MemorySystem>(mem_config, stats_.get());
    page_table_ = std::make_unique<IoPageTable>();
    iommu_.reset();
    if (with_iommu) {
      iommu_ = std::make_unique<Iommu>(iommu_config, memory_.get(), page_table_.get(),
                                       stats_.get());
    }
    rc_ = std::make_unique<RootComplex>(pcie_config, iommu_.get(), memory_.get(), stats_.get());
  }

  // Maps `pages` pages starting at `base` and returns one segment per page.
  std::vector<DmaSegment> MapPages(Iova base, int pages) {
    std::vector<DmaSegment> segments;
    for (int i = 0; i < pages; ++i) {
      const Iova iova = base + static_cast<Iova>(i) * kPageSize;
      page_table_->Map(iova, 0x10000000 + i * kPageSize);
      segments.push_back(DmaSegment{iova, static_cast<std::uint32_t>(kPageSize)});
    }
    return segments;
  }

  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<IoPageTable> page_table_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<RootComplex> rc_;
};

TEST_F(PcieTest, WriteChopsIntoMaxPayloadTlps) {
  Build(false);
  const std::vector<DmaSegment> seg = {{0x1000, 4096}};
  rc_->DmaWrite(0, seg);
  EXPECT_EQ(stats_->Value("pcie.write_tlps"), 4096u / 256u);
}

TEST_F(PcieTest, TlpsDoNotCrossPageBoundaries) {
  Build(false);
  // A segment starting 128 bytes before a page boundary.
  const std::vector<DmaSegment> seg = {{0x1000 - 128, 512}};
  rc_->DmaWrite(0, seg);
  // 128 bytes, then 256 + 128 after the boundary = 3 TLPs.
  EXPECT_EQ(stats_->Value("pcie.write_tlps"), 3u);
}

TEST_F(PcieTest, BypassWriteRunsAtLinkRate) {
  Build(false);
  // 64 KB: wire time = 256 TLPs * (282 bytes / 16 B/ns) ≈ 4.5 us.
  std::vector<DmaSegment> segments;
  for (int i = 0; i < 16; ++i) {
    segments.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming t = rc_->DmaWrite(0, segments);
  const double gbps = 65536.0 * 8.0 / static_cast<double>(t.commit_done);
  EXPECT_GT(gbps, 100.0);  // PCIe-limited, above NIC rate
  EXPECT_LE(gbps, 128.0);
}

TEST_F(PcieTest, LinkDoneBeforeCommitDone) {
  Build(true);
  auto segments = MapPages(0x100000, 4);
  const DmaTiming t = rc_->DmaWrite(0, segments);
  EXPECT_LE(t.link_done, t.commit_done);
}

TEST_F(PcieTest, TranslationStallReducesWriteThroughput) {
  // Same DMA with and without IOMMU. With PTcaches disabled every page pays
  // a full 4-read walk, which exceeds the per-page drain slack and stalls
  // the in-order commit pipe.
  Build(false);
  std::vector<DmaSegment> segments;
  for (int i = 0; i < 64; ++i) {
    segments.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(0, segments);

  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming on = rc_->DmaWrite(0, mapped);
  EXPECT_GT(on.commit_done, off.commit_done + 64 * 100);
}

TEST_F(PcieTest, ContiguousPagesShareOnePtL4PageAndStayFast) {
  // 64 contiguous pages live in one PT-L4 page: after the first full walk,
  // every page's miss costs a single PTE read (PTcache-L3 hit) and hides
  // under the drain slack — the mechanism F&S builds on.
  Build(true);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming on = rc_->DmaWrite(0, mapped);
  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 64; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(0, raw);
  EXPECT_LT(on.commit_done, off.commit_done + 1000);
}

TEST_F(PcieTest, WarmIotlbWriteMatchesBypass) {
  Build(true);
  auto mapped = MapPages(0x100000, 32);
  rc_->DmaWrite(0, mapped);  // warm all IOTLB entries
  const TimeNs start = 1000000;
  const DmaTiming warm = rc_->DmaWrite(start, mapped);

  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 32; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(start, raw);
  const std::uint64_t warm_dur = warm.commit_done - start;
  const std::uint64_t off_dur = off.commit_done - start;
  EXPECT_NEAR(static_cast<double>(warm_dur), static_cast<double>(off_dur),
              static_cast<double>(off_dur) * 0.02);
}

TEST_F(PcieTest, SingleCheapMissPerPageHidesUnderDrain) {
  // The F&S regime: PTcache-L3 warm, so each page costs one ~100 ns read,
  // which overlaps with the previous page's commit. Throughput ≈ bypass.
  Build(true);
  auto mapped = MapPages(0x100000, 64);
  // Warm PTcaches (and IOTLB)...
  rc_->DmaWrite(0, mapped);
  // ...then kill only the IOTLB (strict unmap/remap cycle, F&S-style).
  for (const auto& seg : mapped) {
    iommu_->InvalidateRange(seg.iova, kPageSize, /*leaf_only=*/true, 500000);
  }
  const TimeNs start = 1000000;
  const DmaTiming fs = rc_->DmaWrite(start, mapped);
  const double dur_ns = static_cast<double>(fs.commit_done - start);
  const double gbps = 64.0 * 4096.0 * 8.0 / dur_ns;
  // Must stay within a few percent of the ~116 Gbps wire-limited rate.
  EXPECT_GT(gbps, 105.0);
}

TEST_F(PcieTest, ColdWalksCollapseThroughput) {
  // The strict-mode worst case: every page misses all PTcaches.
  Build(true);
  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  rc_->DmaWrite(0, mapped);
  for (const auto& seg : mapped) {
    iommu_->InvalidateRange(seg.iova, kPageSize, true, 500000);
  }
  const TimeNs start = 1000000;
  const DmaTiming t = rc_->DmaWrite(start, mapped);
  const double gbps = 64.0 * 4096.0 * 8.0 / static_cast<double>(t.commit_done - start);
  EXPECT_LT(gbps, 85.0);  // 4 sequential reads per page stall the pipe
}

TEST_F(PcieTest, ReadCompletionsComeBackDownstream) {
  Build(false);
  const std::vector<DmaSegment> seg = {{0x1000, 4096}};
  const DmaTiming t = rc_->DmaRead(0, seg);
  EXPECT_EQ(stats_->Value("pcie.read_tlps"), 16u);
  // Read latency includes memory access.
  EXPECT_GE(t.commit_done, 100u);
}

TEST_F(PcieTest, ReadsTolerateTranslationLatencyBetterThanWrites) {
  // §4.1: with many outstanding read requests, per-request latency inflation
  // hurts reads less than in-order writes. Compare relative slowdowns.
  Build(true);
  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;

  // Writes, cold walks:
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming w_cold = rc_->DmaWrite(0, mapped);
  // Writes, bypass:
  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 64; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming w_off = rc_->DmaWrite(0, raw);

  // Reads, cold walks:
  Build(true, PcieConfig{}, no_ptc);
  mapped = MapPages(0x100000, 64);
  const DmaTiming r_cold = rc_->DmaRead(0, mapped);
  // Reads, bypass:
  Build(false);
  const DmaTiming r_off = rc_->DmaRead(0, raw);

  const double write_slowdown =
      static_cast<double>(w_cold.commit_done) / static_cast<double>(w_off.commit_done);
  const double read_slowdown =
      static_cast<double>(r_cold.commit_done) / static_cast<double>(r_off.commit_done);
  EXPECT_LT(read_slowdown, write_slowdown);
}

TEST_F(PcieTest, RcBufferLimitsInFlightBytes) {
  // With a tiny RC buffer and artificially slow commits, the link must stall.
  PcieConfig small;
  small.rc_buffer_bytes = 512;
  small.commit_bytes_per_ns = 0.5;  // very slow drain
  Build(false, small);
  std::vector<DmaSegment> seg = {{0x1000, 4096}};
  rc_->DmaWrite(0, seg);
  EXPECT_GT(stats_->Value("pcie.stall_ns"), 0u);
}

TEST_F(PcieTest, FaultedTransactionsAreDroppedAndCounted) {
  Build(true);
  // Unmapped IOVA: every TLP faults.
  std::vector<DmaSegment> seg = {{0x7000, 4096}};
  const DmaTiming t = rc_->DmaWrite(0, seg);
  EXPECT_TRUE(t.fault);
  EXPECT_EQ(stats_->Value("pcie.faults"), 16u);
}

TEST_F(PcieTest, PassthroughSegmentsBypassTheIommu) {
  // Unmapped addresses from a passthrough function: no translation, no
  // fault, and the same timing as a root complex without an IOMMU.
  std::vector<DmaSegment> seg = {{0x7000, 4096, DomainId{}, /*passthrough=*/true}};
  Build(false);
  const DmaTiming bypass_write = rc_->DmaWrite(0, seg);
  const DmaTiming bypass_read = rc_->DmaRead(bypass_write.commit_done, seg);
  Build(true);
  const DmaTiming write = rc_->DmaWrite(0, seg);
  const DmaTiming read = rc_->DmaRead(write.commit_done, seg);
  EXPECT_FALSE(write.fault);
  EXPECT_FALSE(read.fault);
  EXPECT_EQ(write.commit_done, bypass_write.commit_done);
  EXPECT_EQ(read.commit_done, bypass_read.commit_done);
  EXPECT_EQ(stats_->Value("iommu.translations"), 0u);
  EXPECT_EQ(stats_->Value("pcie.faults"), 0u);
}

TEST_F(PcieTest, OutstandingReadLimitThrottles) {
  PcieConfig few;
  few.max_outstanding_reads = 1;
  Build(false, few);
  std::vector<DmaSegment> seg;
  for (int i = 0; i < 8; ++i) {
    seg.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming serial = rc_->DmaRead(0, seg);

  PcieConfig many;
  many.max_outstanding_reads = 64;
  Build(false, many);
  const DmaTiming parallel = rc_->DmaRead(0, seg);
  EXPECT_GT(serial.commit_done, parallel.commit_done);
}

// Deque-based oracle: the root complex before the FIFO rings and the
// hoisted full-size TLP costs, kept verbatim in behaviour — every TLP's
// wire time and drain computed from its payload, std::deque queues.
class DequeRootComplex {
 public:
  DequeRootComplex(const PcieConfig& config, Iommu* iommu, MemorySystem* memory,
                   StatsRegistry* stats)
      : config_(config),
        iommu_(iommu),
        memory_(memory),
        write_tlps_(stats->Get("pcie.write_tlps")),
        read_tlps_(stats->Get("pcie.read_tlps")),
        wire_bytes_(stats->Get("pcie.wire_bytes")),
        stall_ns_(stats->Get("pcie.stall_ns")),
        faults_(stats->Get("pcie.faults")),
        backpressure_bursts_(stats->Get("pcie.backpressure_bursts")) {}

  void SetFaultInjector(FaultInjector* faults) { fault_injector_ = faults; }

  DmaTiming DmaWrite(TimeNs start, const std::vector<DmaSegment>& segments) {
    DmaTiming timing;
    start = ApplyBackpressure(start);
    TimeNs t = start;
    for (const DmaSegment& seg : segments) {
      std::uint32_t off = 0;
      while (off < seg.len) {
        const Iova iova = seg.iova + off;
        const std::uint32_t to_page_end =
            static_cast<std::uint32_t>(kPageSize - (iova & (kPageSize - 1)));
        std::uint32_t payload = seg.len - off;
        if (payload > config_.max_payload_bytes) {
          payload = config_.max_payload_bytes;
        }
        if (payload > to_page_end) {
          payload = to_page_end;
        }
        write_tlps_->Add();
        TimeNs send =
            WaitForBufferSpace(t > upstream_link_free_ ? t : upstream_link_free_, payload);
        const TimeNs wire =
            SerializationDelayNs(payload + RootComplex::kTlpHeaderBytes, config_.link_gbps);
        wire_bytes_->Add(payload + RootComplex::kTlpHeaderBytes);
        upstream_link_free_ = send + wire;
        const TimeNs arrival = upstream_link_free_;
        t = arrival;
        bool fault = false;
        const TimeNs translated = TranslateAt(seg.domain, iova, arrival, &fault);
        if (fault) {
          timing.fault = true;
          ReleaseAt(commit_free_ > arrival ? commit_free_ : arrival, payload);
          off += payload;
          continue;
        }
        TimeNs commit_start = arrival;
        if (translated > commit_start) {
          commit_start = translated;
        }
        if (commit_free_ > commit_start) {
          commit_start = commit_free_;
        }
        auto drain =
            static_cast<TimeNs>(static_cast<double>(payload) / config_.commit_bytes_per_ns);
        if (drain == 0) {
          drain = 1;
        }
        commit_free_ = commit_start + drain;
        memory_->Post(commit_start, payload);
        ReleaseAt(commit_free_, payload);
        off += payload;
      }
    }
    timing.link_done = upstream_link_free_;
    timing.commit_done = commit_free_ > start ? commit_free_ : start;
    return timing;
  }

  DmaTiming DmaRead(TimeNs start, const std::vector<DmaSegment>& segments) {
    DmaTiming timing;
    start = ApplyBackpressure(start);
    TimeNs t = start;
    TimeNs last_completion = start;
    for (const DmaSegment& seg : segments) {
      std::uint32_t off = 0;
      while (off < seg.len) {
        const Iova iova = seg.iova + off;
        const std::uint32_t to_page_end =
            static_cast<std::uint32_t>(kPageSize - (iova & (kPageSize - 1)));
        std::uint32_t payload = seg.len - off;
        if (payload > config_.max_payload_bytes) {
          payload = config_.max_payload_bytes;
        }
        if (payload > to_page_end) {
          payload = to_page_end;
        }
        read_tlps_->Add();
        while (!outstanding_reads_.empty() && outstanding_reads_.front() <= t) {
          outstanding_reads_.pop_front();
        }
        if (outstanding_reads_.size() >= config_.max_outstanding_reads) {
          const TimeNs free_at = outstanding_reads_.front();
          if (free_at > t) {
            stall_ns_->Add(free_at - t);
            t = free_at;
          }
          outstanding_reads_.pop_front();
        }
        TimeNs send = t > upstream_link_free_ ? t : upstream_link_free_;
        const TimeNs req_wire =
            SerializationDelayNs(RootComplex::kTlpHeaderBytes, config_.link_gbps);
        wire_bytes_->Add(RootComplex::kTlpHeaderBytes);
        upstream_link_free_ = send + req_wire;
        const TimeNs arrival = upstream_link_free_;
        t = arrival;
        bool fault = false;
        const TimeNs translated = TranslateAt(seg.domain, iova, arrival, &fault);
        if (fault) {
          timing.fault = true;
          off += payload;
          continue;
        }
        const TimeNs data_ready = memory_->Read(translated, payload);
        TimeNs comp_start =
            data_ready > downstream_link_free_ ? data_ready : downstream_link_free_;
        const TimeNs comp_wire =
            SerializationDelayNs(payload + RootComplex::kTlpHeaderBytes, config_.link_gbps);
        wire_bytes_->Add(payload + RootComplex::kTlpHeaderBytes);
        downstream_link_free_ = comp_start + comp_wire;
        const TimeNs completion = downstream_link_free_;
        outstanding_reads_.push_back(completion);
        if (completion > last_completion) {
          last_completion = completion;
        }
        off += payload;
      }
    }
    timing.link_done = upstream_link_free_ > start ? upstream_link_free_ : start;
    timing.commit_done = last_completion;
    return timing;
  }

 private:
  TimeNs ApplyBackpressure(TimeNs start) {
    if (fault_injector_ != nullptr) {
      if (const FaultDecision d =
              fault_injector_->Sample(FaultKind::kRootComplexBackpressure, start);
          d.fire) {
        backpressure_bursts_->Add();
        stall_ns_->Add(d.magnitude_ns);
        return start + d.magnitude_ns;
      }
    }
    return start;
  }

  TimeNs WaitForBufferSpace(TimeNs t, std::uint32_t bytes) {
    while (!rc_buffer_.empty() && rc_buffer_.front().release <= t) {
      rc_buffer_occupancy_ -= rc_buffer_.front().bytes;
      rc_buffer_.pop_front();
    }
    while (rc_buffer_occupancy_ + bytes > config_.rc_buffer_bytes && !rc_buffer_.empty()) {
      const TimeNs head = rc_buffer_.front().release;
      if (head > t) {
        stall_ns_->Add(head - t);
        t = head;
      }
      rc_buffer_occupancy_ -= rc_buffer_.front().bytes;
      rc_buffer_.pop_front();
    }
    return t;
  }

  void ReleaseAt(TimeNs when, std::uint32_t bytes) {
    rc_buffer_.push_back(BufferedBytes{when, bytes});
    rc_buffer_occupancy_ += bytes;
  }

  TimeNs TranslateAt(DomainId domain, Iova iova, TimeNs at, bool* fault) {
    if (iommu_ == nullptr) {
      return at;
    }
    const TranslationResult tr = iommu_->Translate(domain, iova, at);
    if (tr.fault) {
      *fault = true;
      faults_->Add();
    }
    return tr.done;
  }

  PcieConfig config_;
  Iommu* iommu_;
  MemorySystem* memory_;
  FaultInjector* fault_injector_ = nullptr;
  TimeNs upstream_link_free_ = 0;
  TimeNs downstream_link_free_ = 0;
  TimeNs commit_free_ = 0;
  struct BufferedBytes {
    TimeNs release;
    std::uint32_t bytes;
  };
  std::deque<BufferedBytes> rc_buffer_;
  std::uint64_t rc_buffer_occupancy_ = 0;
  std::deque<TimeNs> outstanding_reads_;
  Counter* write_tlps_;
  Counter* read_tlps_;
  Counter* wire_bytes_;
  Counter* stall_ns_;
  Counter* faults_;
  Counter* backpressure_bursts_;
};

// One simulated host below a root complex: its own counters, memory,
// page table, optional IOMMU and backpressure injector.
template <typename Rc>
struct RcSide {
  RcSide(const PcieConfig& pcie, bool with_iommu, int pages) {
    memory = std::make_unique<MemorySystem>(MemoryConfig{}, &stats);
    if (with_iommu) {
      // Every fifth page stays unmapped, so TLPs to it fault.
      for (int i = 0; i < pages; ++i) {
        if (i % 5 != 4) {
          page_table.Map(static_cast<Iova>(i) * kPageSize, 0x10000000 + i * kPageSize);
        }
      }
      iommu = std::make_unique<Iommu>(IommuConfig{}, memory.get(), &page_table, &stats);
    }
    FaultPlan plan;
    FaultSpec burst;
    burst.kind = FaultKind::kRootComplexBackpressure;
    burst.probability = 0.03;
    burst.magnitude_ns = 700;
    plan.Add(burst);
    faults = std::make_unique<FaultInjector>(plan, &stats);
    rc = std::make_unique<Rc>(pcie, iommu.get(), memory.get(), &stats);
    rc->SetFaultInjector(faults.get());
  }

  StatsRegistry stats;
  IoPageTable page_table;
  std::unique_ptr<MemorySystem> memory;
  std::unique_ptr<Iommu> iommu;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<Rc> rc;
};

struct RcGeometry {
  const char* name;
  std::uint64_t rc_buffer_bytes;
  std::uint32_t max_outstanding_reads;
  std::uint32_t max_payload_bytes;
  double commit_bytes_per_ns;
  bool with_iommu;
};

// Prints the config's name, so test names do not depend on pointer or
// padding bytes.
void PrintTo(const RcGeometry& g, std::ostream* os) { *os << g.name; }

class RootComplexLockstep : public ::testing::TestWithParam<RcGeometry> {};

// Drives the root complex and the deque oracle with the same seeded DMAs —
// segment lists with odd offsets, lengths that cross pages and 1-byte
// segments (whose TLPs overfill the RC ring's full-size bound) — and
// compares every DmaTiming field and every counter after each DMA.
TEST_P(RootComplexLockstep, MatchesDequeReference) {
  const RcGeometry g = GetParam();
  PcieConfig pcie;
  pcie.rc_buffer_bytes = g.rc_buffer_bytes;
  pcie.max_outstanding_reads = g.max_outstanding_reads;
  pcie.max_payload_bytes = g.max_payload_bytes;
  pcie.commit_bytes_per_ns = g.commit_bytes_per_ns;
  constexpr int kPages = 40;
  RcSide<RootComplex> side(pcie, g.with_iommu, kPages);
  RcSide<DequeRootComplex> ref(pcie, g.with_iommu, kPages);
  Rng rng(4242 + g.rc_buffer_bytes + g.max_outstanding_reads);
  const std::uint32_t kLens[] = {1, 1, 3, 100, 255, 256, 257, 1000, 4096, 5000};
  TimeNs now = 0;
  for (int i = 0; i < 1500; ++i) {
    std::vector<DmaSegment> segments(1 + rng.NextBelow(4));
    for (DmaSegment& seg : segments) {
      seg.iova = rng.NextBelow(kPages - 2) * kPageSize + rng.NextBelow(kPageSize);
      const std::size_t pick = rng.NextBelow(11);
      seg.len = pick < 10 ? kLens[pick] : 1 + static_cast<std::uint32_t>(rng.NextBelow(9000));
    }
    now += rng.NextBelow(3000);
    const TimeNs start = rng.NextBool(0.2) && now > 2000 ? now - rng.NextBelow(2000) : now;
    const bool write = rng.NextBool(0.6);
    const DmaTiming got = write ? side.rc->DmaWrite(start, segments)
                                : side.rc->DmaRead(start, segments);
    const DmaTiming want = write ? ref.rc->DmaWrite(start, segments)
                                 : ref.rc->DmaRead(start, segments);
    ASSERT_EQ(got.link_done, want.link_done) << "dma " << i;
    ASSERT_EQ(got.commit_done, want.commit_done) << "dma " << i;
    ASSERT_EQ(got.fault, want.fault) << "dma " << i;
    ASSERT_EQ(side.stats.Snapshot(), ref.stats.Snapshot()) << "dma " << i;
    if (g.with_iommu && rng.NextBool(0.05)) {
      // Drop some cached translations so later DMAs walk again.
      const Iova page = rng.NextBelow(kPages) * kPageSize;
      const bool leaf_only = rng.NextBool(0.5);
      side.iommu->InvalidateRange(page, 4 * kPageSize, leaf_only, now);
      ref.iommu->InvalidateRange(page, 4 * kPageSize, leaf_only, now);
    }
  }
  // The mix must reach the paths under test.
  EXPECT_GT(side.stats.Value("pcie.stall_ns"), 0u);
  EXPECT_GT(side.stats.Value("pcie.backpressure_bursts"), 0u);
  if (g.with_iommu) {
    EXPECT_GT(side.stats.Value("pcie.faults"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RootComplexLockstep,
    ::testing::Values(RcGeometry{"Default", 6400, 64, 256, 16.0, false},
                      RcGeometry{"DefaultIommu", 6400, 64, 256, 16.0, true},
                      RcGeometry{"SmallBufferOneRead", 300, 1, 256, 0.5, false},
                      RcGeometry{"SmallBufferThreeReadsIommu", 512, 3, 256, 2.0, true},
                      RcGeometry{"OneReadIommu", 6400, 1, 256, 16.0, true},
                      RcGeometry{"OddPayloadThreeReads", 1000, 3, 100, 1.0, false}),
    [](const ::testing::TestParamInfo<RcGeometry>& info) { return info.param.name; });

// Degenerate configs the constructor refuses, one field each: each would
// otherwise hang the TLP loop, read an empty queue or cast inf/NaN to time.
void ExpectRejected(const PcieConfig& config, const std::string& field) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  try {
    RootComplex rc(config, nullptr, &memory, &stats);
    ADD_FAILURE() << "accepted bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

TEST(RootComplexConfigTest, RejectsZeroMaxPayload) {
  PcieConfig config;
  config.max_payload_bytes = 0;
  ExpectRejected(config, "max_payload_bytes");
}

TEST(RootComplexConfigTest, RejectsZeroOutstandingReads) {
  PcieConfig config;
  config.max_outstanding_reads = 0;
  ExpectRejected(config, "max_outstanding_reads");
}

TEST(RootComplexConfigTest, RejectsNonPositiveLinkRate) {
  for (const double gbps : {0.0, -8.0, std::nan("")}) {
    PcieConfig config;
    config.link_gbps = gbps;
    ExpectRejected(config, "link_gbps");
  }
}

TEST(RootComplexConfigTest, RejectsNonPositiveCommitRate) {
  for (const double rate : {0.0, -1.0, std::nan("")}) {
    PcieConfig config;
    config.commit_bytes_per_ns = rate;
    ExpectRejected(config, "commit_bytes_per_ns");
  }
}

}  // namespace
}  // namespace fsio

// Microbenchmarks (google-benchmark) for the substrate data structures:
// IOVA allocation paths, IO page table operations, IOMMU cache operations,
// the memory-bank grant, the per-TLP root-complex loops, reuse-distance
// tracking and the DMA API's map/unmap cycles. These measure simulator-implementation speed
// (how fast the model itself runs), complementing the figure benches which
// measure *simulated* performance.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/driver/dma_api.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/iova/rbtree_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/rng.h"
#include "src/stats/reuse_distance.h"

namespace fsio {
namespace {

void BM_RbTreeAllocFree(benchmark::State& state) {
  RbTreeAllocator tree(1ULL << 36);
  std::vector<std::uint64_t> live;
  Rng rng(1);
  for (auto _ : state) {
    if (live.size() < 1024 || rng.NextBool(0.5)) {
      const std::uint64_t pfn = tree.Alloc(1 + rng.NextBelow(64));
      if (pfn != RbTreeAllocator::kInvalidPfn) {
        live.push_back(pfn);
      }
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      tree.Free(live[idx]);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RbTreeAllocFree);

// The request shape IovaAllocator actually sends to the tree: naturally
// aligned power-of-two sizes of 1-64 pages, rcache off so every op reaches
// the tree, ~1024 live ranges.
void BM_IovaTreePathChurn(benchmark::State& state) {
  StatsRegistry stats;
  IovaAllocatorConfig config;
  config.num_cores = 1;
  config.enable_rcache = false;
  IovaAllocator alloc(config, &stats);
  struct Live {
    Iova iova;
    std::uint64_t pages;
  };
  std::vector<Live> live;
  Rng rng(1);
  for (auto _ : state) {
    if (live.size() < 1024 || rng.NextBool(0.5)) {
      const std::uint64_t pages = 1ULL << rng.NextBelow(7);
      const Iova iova = alloc.Alloc(0, pages);
      if (iova != IovaAllocator::kInvalidIova) {
        live.push_back({iova, pages});
      }
    } else {
      const std::size_t idx = rng.NextBelow(live.size());
      alloc.Free(0, live[idx].iova, live[idx].pages);
      live[idx] = live.back();
      live.pop_back();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IovaTreePathChurn);

void BM_IovaRcacheHit(benchmark::State& state) {
  StatsRegistry stats;
  IovaAllocator alloc(IovaAllocatorConfig{}, &stats);
  for (auto _ : state) {
    const Iova iova = alloc.Alloc(0, 1);
    alloc.Free(0, iova, 1);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_IovaRcacheHit);

void BM_PageTableMapUnmap(benchmark::State& state) {
  IoPageTable pt;
  const std::uint64_t span = state.range(0);
  Iova iova = 0x1000000000ULL;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < span; ++i) {
      pt.Map(iova + i * kPageSize, 0x1000 + i * kPageSize);
    }
    pt.Unmap(iova, span * kPageSize);
  }
  state.SetItemsProcessed(state.iterations() * span);
}
BENCHMARK(BM_PageTableMapUnmap)->Arg(1)->Arg(64)->Arg(512);

void BM_PageTableWalk(benchmark::State& state) {
  IoPageTable pt;
  Rng rng(7);
  std::vector<Iova> iovas;
  for (int i = 0; i < 4096; ++i) {
    const Iova iova = (rng.NextBelow(1 << 22)) << kPageShift;
    if (pt.Map(iova, 0x1000)) {
      iovas.push_back(iova);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(iovas[i++ % iovas.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageTableWalk);

void BM_SetAssocCacheLookup(benchmark::State& state) {
  SetAssocCache cache(16, 4);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(i, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(rng.NextBelow(96)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocCacheLookup);

// The PTcache-L3 shape (1 set x 128 ways), filled with tags 0..127: the
// geometry behind most cache time in a strict-mode run.
SetAssocCache FullPtcache() {
  SetAssocCache cache(1, 128);
  for (std::uint64_t t = 0; t < 128; ++t) {
    cache.Insert(t, t);
  }
  return cache;
}

void BM_Ptcache128LookupHit(benchmark::State& state) {
  SetAssocCache cache = FullPtcache();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(rng.NextBelow(128)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ptcache128LookupHit);

void BM_Ptcache128LookupMiss(benchmark::State& state) {
  SetAssocCache cache = FullPtcache();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(128 + rng.NextBelow(1 << 20)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ptcache128LookupMiss);

void BM_Ptcache128InsertEvict(benchmark::State& state) {
  SetAssocCache cache = FullPtcache();
  std::uint64_t tag = 128;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(tag, tag));  // always a new tag
    ++tag;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ptcache128InsertEvict);

// One-tag InvalidateRange: arg 0 on an absent tag (an empty namespace),
// arg 1 on a cached one, re-inserted after each call to keep the cache full.
void BM_Ptcache128InvalidateOneTag(benchmark::State& state) {
  SetAssocCache cache = FullPtcache();
  const bool present = state.range(0) != 0;
  Rng rng(3);
  for (auto _ : state) {
    const std::uint64_t tag = present ? rng.NextBelow(128) : 128 + rng.NextBelow(1 << 20);
    benchmark::DoNotOptimize(cache.InvalidateRange(tag, tag));
    if (present) {
      cache.Insert(tag, tag);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Ptcache128InvalidateOneTag)->Arg(0)->Arg(1);

void BM_IommuTranslateWarm(benchmark::State& state) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  IoPageTable pt;
  Iommu iommu(IommuConfig{}, &memory, &pt, &stats);
  for (int i = 0; i < 16; ++i) {
    pt.Map(0x1000000 + static_cast<Iova>(i) * kPageSize, 0x1000);
  }
  TimeNs t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iommu.Translate(0x1000000, t));
    t += 10;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslateWarm);

// The strict-mode page cycle: a fresh IOTLB miss, then a leaf-only
// invalidation of that page, for each entry of the PTcache ladder.
// Arg 0: 4 KB leaves sharing one PT-L4 page (PTcache-L3 hit, 1 read).
// Arg 1: 2 MB leaves under two PT-L3 pages (PTcache-L2 hit, 1 read).
// Arg 2: 4 KB leaves with PTcaches disabled (every level misses, 4 reads).
void BM_IommuTranslateMiss(benchmark::State& state) {
  const bool huge = state.range(0) == 1;
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  IoPageTable pt;
  IommuConfig config;
  config.ptcache_enabled = state.range(0) != 2;
  Iommu iommu(config, &memory, &pt, &stats);
  constexpr std::uint64_t kPages = 512;
  constexpr Iova kBase = 0x1000000;
  const std::uint64_t stride = huge ? LevelEntrySpan(3) : kPageSize;
  for (std::uint64_t i = 0; i < kPages; ++i) {
    if (huge) {
      pt.MapHuge(kBase + i * stride, LevelEntrySpan(3));
    } else {
      pt.Map(kBase + i * stride, 0x1000);
    }
  }
  TimeNs t = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    const Iova iova = kBase + (i++ % kPages) * stride;
    t = iommu.Translate(iova, t).done;
    t = iommu.InvalidateRange(iova, kPageSize, /*leaf_only=*/true, t);
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IommuTranslateMiss)->Arg(0)->Arg(1)->Arg(2);

// The Rx commit pattern on the default 8 banks: a 256 B posted write every
// 16 ns, and every fourth one a 64 B walk read issued behind them.
void BM_MemorySystemGrant(benchmark::State& state) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  TimeNs t = 1000;
  std::uint64_t i = 0;
  for (auto _ : state) {
    memory.Post(t, 256);
    if (++i % 4 == 0) {
      benchmark::DoNotOptimize(memory.ReadWalkSequence(t - 300, 1, 0, 64));
    }
    t += 16;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(stats.Value("mem.accesses")));
}
BENCHMARK(BM_MemorySystemGrant);

// One 4 KB page per call (16 full-size TLPs) through a bypass root complex,
// each DMA issued when the previous one leaves the link.
template <bool kWrite>
void BM_RootComplex4K(benchmark::State& state) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  RootComplex rc(PcieConfig{}, nullptr, &memory, &stats);
  std::vector<DmaSegment> seg = {DmaSegment{0, static_cast<std::uint32_t>(kPageSize)}};
  TimeNs t = 0;
  std::uint64_t page = 0;
  for (auto _ : state) {
    seg[0].iova = (page++ % 4096) * kPageSize;
    t = (kWrite ? rc.DmaWrite(t, seg) : rc.DmaRead(t, seg)).link_done;
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      stats.Value(kWrite ? "pcie.write_tlps" : "pcie.read_tlps")));
}

void BM_RootComplexWrite4K(benchmark::State& state) { BM_RootComplex4K<true>(state); }
BENCHMARK(BM_RootComplexWrite4K);

void BM_RootComplexRead4K(benchmark::State& state) { BM_RootComplex4K<false>(state); }
BENCHMARK(BM_RootComplexRead4K);

void BM_ReuseDistanceAccess(benchmark::State& state) {
  ReuseDistanceTracker tracker;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Access(rng.NextBelow(256)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseDistanceAccess);

// One driver stack (IOVA allocator, IO page table, IOMMU, DmaApi) in `mode`,
// freeing every IOVA on the core that allocated it.
struct DmaStack {
  explicit DmaStack(ProtectionMode mode)
      : memory(MemoryConfig{}, &stats),
        iommu(IommuConfig{}, &memory, &pt, &stats),
        iova(IovaAllocatorConfig{}, &stats),
        dma(Config(mode), &iova, &pt, &iommu, &stats) {}
  static DmaApiConfig Config(ProtectionMode mode) {
    DmaApiConfig config;
    config.mode = mode;
    config.num_cores = 1;
    return config;
  }
  StatsRegistry stats;
  MemorySystem memory;
  IoPageTable pt;
  Iommu iommu;
  IovaAllocator iova;
  DmaApi dma;
};

// Strict Rx descriptor cycle: MapPages of 64 pages (64 IOVAs, 64 PTEs), then
// UnmapDescriptor (64 unmaps, 64 invalidation requests and waits).
void BM_DmaApiRxDescriptor(benchmark::State& state) {
  DmaStack stack(ProtectionMode::kStrict);
  std::vector<PhysAddr> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(0x10000000 + static_cast<PhysAddr>(i) * kPageSize);
  }
  TimeNs t = 0;
  for (auto _ : state) {
    const DmaApi::MapResult r = stack.dma.MapPages(0, frames);
    t += r.cpu_ns;
    t += stack.dma.UnmapDescriptor(0, r.mappings, t).cpu_ns;
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DmaApiRxDescriptor);

// F&S Tx burst: 16 MapOnePage calls packed at the per-core chunk cursor, then
// one UnmapDescriptor (one run, one batched leaf-only invalidation).
void BM_DmaApiTxPages(benchmark::State& state) {
  DmaStack stack(ProtectionMode::kFastSafe);
  std::vector<DmaMapping> mappings;
  TimeNs t = 0;
  for (auto _ : state) {
    mappings.clear();
    for (int i = 0; i < 16; ++i) {
      const DmaApi::PageMapResult page =
          stack.dma.MapOnePage(0, 0x10000000 + static_cast<PhysAddr>(i) * kPageSize);
      t += page.cpu_ns;
      mappings.push_back(page.mapping);
    }
    t += stack.dma.UnmapDescriptor(0, mappings, t).cpu_ns;
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DmaApiTxPages);

}  // namespace
}  // namespace fsio

BENCHMARK_MAIN();

// Microbenchmarks (google-benchmark) for the substrate data structures:
// IOVA allocation paths, IO page table operations, IOMMU cache operations
// and reuse-distance tracking. These measure simulator-implementation speed
// (how fast the model itself runs), complementing the figure benches which
// measure *simulated* performance.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/cache/set_assoc_cache.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/iova/rbtree_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
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

void BM_ReuseDistanceAccess(benchmark::State& state) {
  ReuseDistanceTracker tracker;
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.Access(rng.NextBelow(256)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseDistanceAccess);

}  // namespace
}  // namespace fsio

BENCHMARK_MAIN();

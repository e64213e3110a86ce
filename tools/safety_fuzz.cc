// Randomized DMA-safety fuzzer: every protection mode crossed with a matrix
// of deterministic fault plans.
//
// For each (mode, plan) pair the harness builds the full driver-side stack
// (page table, IOMMU, IOVA and frame allocators, DmaApi, root complex),
// wires in a seeded FaultInjector, SafetyOracle and InvariantRegistry, and
// runs a randomized map/access/unmap workload while the plan injects
// environment faults (lost/stalled invalidations, walker latency spikes,
// allocation failures, duplicate completions, delayed deferred flushes,
// use-after-release replays).
//
// The run then asserts the paper's safety matrix:
//   * strictly-safe modes (strict, strict+preserve, strict+contig, F&S,
//     capability) and iommu-off produce ZERO oracle violations under EVERY
//     plan;
//   * linux-deferred produces use-after-unmap violations under the
//     delayed-flush plan (the window the paper's design closes);
//   * hugepage-persistent produces use-after-unmap violations under the
//     use-after-release plan (the related-work safety trade);
//   * registered structural invariants (page-table consistency, chunk
//     accounting, no overlapping live maps) hold in every run;
//   * the driver's graceful-degradation path engages (retries > 0) for
//     strict and F&S under the invalidation stall/drop plan;
//   * injected duplicate completions are detected as double-unmaps.
//
// All randomness flows from --seed through SplitMix64 streams, so two runs
// with the same arguments print byte-identical output (checked by ctest and
// by --selftest-determinism, which runs the suite twice in-process).
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/flags.h"
#include "src/driver/dma_api.h"
#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

struct FuzzOptions {
  std::uint64_t ops = 2500;
  std::uint64_t seed = 1;
  bool verbose = false;
};

struct RunResult {
  std::string report;       // deterministic per-run text
  std::uint64_t violations = 0;
  std::uint64_t use_after_unmap = 0;
  std::uint64_t check_failures = 0;   // from registered CheckAll() sweeps
  std::uint64_t hard_failures = 0;    // ReportFailure (double unmap etc.)
  std::uint64_t double_unmaps = 0;
  std::uint64_t inv_retries = 0;
  std::uint64_t inv_fallbacks = 0;
  std::uint64_t duplicates_injected = 0;
};

std::vector<FaultPlan> BuildPlans(std::uint64_t seed) {
  std::vector<FaultPlan> plans;

  FaultPlan baseline;
  baseline.name = "baseline";
  baseline.seed = seed;
  plans.push_back(baseline);

  // Lost and stalled invalidation-queue requests: the first six requests are
  // dropped outright (forcing the full retry ladder including the global-
  // flush fallback), later ones are dropped with p=0.2 or stalled past the
  // driver's 50 us wait deadline.
  FaultPlan inv;
  inv.name = "inv-stall-drop";
  inv.seed = seed;
  FaultSpec drop_burst;
  drop_burst.kind = FaultKind::kInvalidationDrop;
  drop_burst.op_end = 6;
  inv.Add(drop_burst);
  FaultSpec drop_tail;
  drop_tail.kind = FaultKind::kInvalidationDrop;
  drop_tail.op_start = 6;
  drop_tail.probability = 0.2;
  inv.Add(drop_tail);
  FaultSpec stall;
  stall.kind = FaultKind::kInvalidationStall;
  stall.probability = 0.3;
  stall.magnitude_ns = 120'000;  // beyond inv_wait_timeout_ns: looks lost
  inv.Add(stall);
  plans.push_back(inv);

  // Translation-path slowdowns: latency only, never a correctness hazard.
  FaultPlan slow;
  slow.name = "walker-backpressure";
  slow.seed = seed;
  FaultSpec spike;
  spike.kind = FaultKind::kWalkerLatencySpike;
  spike.probability = 0.2;
  spike.magnitude_ns = 3'000;
  slow.Add(spike);
  FaultSpec bp;
  bp.kind = FaultKind::kRootComplexBackpressure;
  bp.probability = 0.1;
  bp.magnitude_ns = 5'000;
  slow.Add(bp);
  plans.push_back(slow);

  // Transient allocator failures early in the run; the driver's retry
  // helpers must mask them.
  FaultPlan alloc;
  alloc.name = "alloc-pressure";
  alloc.seed = seed;
  FaultSpec iova_fail;
  iova_fail.kind = FaultKind::kIovaExhaustion;
  iova_fail.probability = 0.4;
  iova_fail.op_end = 400;
  alloc.Add(iova_fail);
  FaultSpec frame_fail;
  frame_fail.kind = FaultKind::kFrameAllocFailure;
  frame_fail.probability = 0.3;
  frame_fail.op_end = 400;
  alloc.Add(frame_fail);
  plans.push_back(alloc);

  // Misbehaving device: duplicate and late descriptor completions. The
  // driver must detect the induced double-unmaps instead of corrupting its
  // accounting.
  FaultPlan chaos;
  chaos.name = "completion-chaos";
  chaos.seed = seed;
  FaultSpec dup;
  dup.kind = FaultKind::kDescCompletionDuplicate;
  dup.probability = 0.25;
  chaos.Add(dup);
  FaultSpec reorder;
  reorder.kind = FaultKind::kDescCompletionReorder;
  reorder.probability = 0.25;
  reorder.magnitude_ns = 2'000;
  chaos.Add(reorder);
  plans.push_back(chaos);

  // Deferred-mode flush timer starved: the flush-queue drain is postponed,
  // stretching every queued IOVA's use-after-unmap window.
  FaultPlan flushd;
  flushd.name = "delayed-flush";
  flushd.seed = seed;
  FaultSpec delay;
  delay.kind = FaultKind::kDeferredFlushDelay;
  delay.max_fires = 3;
  flushd.Add(delay);
  plans.push_back(flushd);

  // Device keeps DMA-ing into persistent-pool buffers after the driver
  // released them — the hazard the hugepage-persistent scheme accepts.
  FaultPlan uar;
  uar.name = "use-after-release";
  uar.seed = seed;
  FaultSpec touch;
  touch.kind = FaultKind::kUseAfterRelease;
  touch.probability = 0.5;
  touch.magnitude_ns = 0;
  uar.Add(touch);
  plans.push_back(uar);

  return plans;
}

RunResult RunOne(ProtectionMode mode, const FaultPlan& plan, const FuzzOptions& opt) {
  StatsRegistry stats;
  FaultInjector injector(plan, &stats);
  SafetyOracle oracle(&stats);
  InvariantRegistry invariants(&stats);

  MemoryConfig mem_config;
  MemorySystem memory(mem_config, &stats);
  IoPageTable page_table;
  Iommu iommu(IommuConfig{}, &memory, &page_table, &stats);
  iommu.SetFaultInjector(&injector);
  iommu.SetSafetyOracle(&oracle);

  IovaAllocatorConfig iova_config;
  iova_config.num_cores = 4;
  IovaAllocator iova(iova_config, &stats);
  iova.SetFaultInjector(&injector);

  FrameAllocator frames(/*scramble=*/false, plan.seed);
  frames.SetFaultInjector(&injector);

  DmaApiConfig dma_config;
  dma_config.mode = mode;
  dma_config.num_cores = 4;
  DmaApi dma(dma_config, &iova, &page_table, &iommu, &stats);
  dma.SetFaultInjector(&injector);
  dma.SetSafetyOracle(&oracle);
  dma.RegisterInvariants(&invariants);

  RootComplex rc(PcieConfig{}, UsesIommu(mode) ? &iommu : nullptr, &memory, &stats);
  rc.SetFaultInjector(&injector);

  invariants.Register("pagetable.consistency",
                      [&page_table](std::string* d) { return page_table.CheckConsistency(d); });
  invariants.Register("oracle.no_overlap", [&oracle](std::string* d) {
    if (oracle.overlap_maps() != 0) {
      *d = "overlapping live map observed";
      return false;
    }
    return true;
  });

  // Workload state. Descriptors are 64-page in normal modes and 512-page
  // (one hugepage) in persistent mode.
  const bool persistent = mode == ProtectionMode::kHugepagePersistent;
  const bool capability = mode == ProtectionMode::kCapability;
  struct Desc {
    std::vector<DmaMapping> mappings;
  };
  std::deque<Desc> live;
  std::deque<Desc> recently_unmapped;  // replay targets (deferred hazard)
  std::deque<Desc> released;           // persistent descriptors given back

  Rng rng(plan.seed * 0x51'7cc1b727220a95ULL + static_cast<std::uint64_t>(mode) + 1);
  TimeNs now = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t skipped_maps = 0;

  auto alloc_frame = [&frames]() {
    // Retry injected transient failures; terminates with probability 1
    // because failure probabilities in every plan are < 1.
    for (;;) {
      const PhysAddr f = frames.AllocFrame();
      if (f != kNullFrame) {
        return f;
      }
    }
  };
  auto alloc_huge = [&frames]() {
    for (;;) {
      const PhysAddr f = frames.AllocHugeFrame();
      if (f != kNullFrame) {
        return f;
      }
    }
  };
  auto access = [&](const Desc& desc, std::size_t page, std::uint32_t len) {
    if (desc.mappings.empty()) {
      return;
    }
    const DmaMapping& m = desc.mappings[page % desc.mappings.size()];
    if (capability && !dma.DeviceCheckCapability(m.iova, 1, now).allowed) {
      return;  // the device refuses the descriptor: no DMA is issued
    }
    rc.DmaWrite(now, {DmaSegment{m.iova, len}});
  };

  for (std::uint64_t op = 0; op < opt.ops; ++op) {
    now += 200 + rng.NextBelow(800);
    const std::uint64_t dice = rng.NextBelow(100);

    if (dice < 30) {
      // Map one descriptor and warm a few of its pages on the device side.
      Desc desc;
      const std::uint32_t core = static_cast<std::uint32_t>(rng.NextBelow(4));
      if (persistent) {
        desc.mappings = dma.AcquirePersistentDescriptor(core, alloc_huge).mappings;
      } else {
        std::vector<PhysAddr> phys;
        phys.reserve(64);
        for (int i = 0; i < 64; ++i) {
          phys.push_back(alloc_frame());
        }
        desc.mappings = dma.MapPages(core, phys).mappings;
      }
      if (desc.mappings.empty()) {
        ++skipped_maps;  // allocator exhaustion out-lasted the retry budget
        continue;
      }
      for (int i = 0; i < 8; ++i) {
        access(desc, static_cast<std::size_t>(rng.NextBelow(desc.mappings.size())), 256);
      }
      live.push_back(std::move(desc));
    } else if (dice < 55) {
      // Touch a random live descriptor.
      if (!live.empty()) {
        access(live[rng.NextBelow(live.size())],
               static_cast<std::size_t>(rng.NextBelow(64)), 256);
      }
    } else if (dice < 75) {
      // Retire a descriptor: access its first page (warming the IOTLB so a
      // deferred-mode replay is served by a stale entry), then unmap or
      // release it. Injected completion faults are applied here: a reorder
      // delays the completion, a duplicate replays it immediately.
      if (live.empty()) {
        continue;
      }
      const std::size_t pick = rng.NextBelow(live.size());
      Desc desc = std::move(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      access(desc, 0, 256);
      const std::uint32_t core = static_cast<std::uint32_t>(rng.NextBelow(4));
      if (persistent) {
        dma.ReleasePersistentDescriptor(core, desc.mappings);
        released.push_back(std::move(desc));
        if (released.size() > 8) {
          released.pop_front();
        }
      } else {
        if (injector.Sample(FaultKind::kDescCompletionReorder, now).fire) {
          now += 2'000;  // the CQE shows up late
        }
        const bool duplicate =
            injector.Sample(FaultKind::kDescCompletionDuplicate, now).fire;
        dma.UnmapDescriptor(core, desc.mappings, now);
        if (duplicate) {
          dma.UnmapDescriptor(core, desc.mappings, now);
        }
        recently_unmapped.push_back(std::move(desc));
        if (recently_unmapped.size() > 4) {
          recently_unmapped.pop_front();
        }
      }
    } else if (dice < 90) {
      // Tx datapath: map a single page, fetch it, unmap it.
      const std::uint32_t core = static_cast<std::uint32_t>(rng.NextBelow(4));
      const auto result = dma.MapPage(core, alloc_frame());
      if (result.mappings.empty()) {
        ++skipped_maps;
        continue;
      }
      if (!capability ||
          dma.DeviceCheckCapability(result.mappings[0].iova, 1, now).allowed) {
        rc.DmaRead(now, {DmaSegment{result.mappings[0].iova, 1024}});
      }
      dma.UnmapDescriptor(core, result.mappings, now);
    } else {
      // Replay: the device touches a recently retired descriptor. Strictly
      // safe modes fault harmlessly (caches were invalidated before the
      // unmap returned); deferred mode hits stale IOTLB state. Released
      // persistent descriptors are replayed only when the plan injects
      // use-after-release.
      if (persistent) {
        if (!released.empty() &&
            injector.Sample(FaultKind::kUseAfterRelease, now).fire) {
          access(released.back(), 0, 256);
        }
      } else if (!recently_unmapped.empty()) {
        access(recently_unmapped.back(), 0, 256);
      }
    }

    if ((op & 0xff) == 0xff) {
      check_failures += invariants.CheckAll(now);
    }
  }
  check_failures += invariants.CheckAll(now);

  RunResult out;
  out.violations = oracle.total_violations();
  out.use_after_unmap = oracle.count(SafetyViolationKind::kUseAfterUnmap);
  out.check_failures = check_failures;
  out.hard_failures = invariants.failure_count() - check_failures;
  out.double_unmaps = stats.Value("dma.double_unmap");
  out.inv_retries = stats.Value("dma.inv_retries");
  out.inv_fallbacks = stats.Value("dma.inv_fallback_flushes");
  out.duplicates_injected = injector.fired(FaultKind::kDescCompletionDuplicate);

  std::ostringstream os;
  os << "=== mode=" << ProtectionModeName(mode) << " plan=" << plan.name << " ===\n";
  os << "ops=" << opt.ops << " violations=" << out.violations
     << " use_after_unmap=" << out.use_after_unmap
     << " stale_ptcache=" << oracle.count(SafetyViolationKind::kStalePtcachePointer)
     << " reclaimed_walk=" << oracle.count(SafetyViolationKind::kReclaimedTableWalk)
     << "\n";
  os << "check_failures=" << out.check_failures << " hard_failures=" << out.hard_failures
     << " double_unmap=" << out.double_unmaps << " skipped_maps=" << skipped_maps << "\n";
  os << "inv: retries=" << out.inv_retries << " timeouts=" << stats.Value("dma.inv_timeouts")
     << " fallback_flushes=" << out.inv_fallbacks
     << " dropped=" << stats.Value("iommu.inv_dropped")
     << " masked_allocs=" << stats.Value("dma.fault_masked") << "\n";
  os << "faults:";
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (injector.fired(kind) != 0) {
      os << " " << FaultKindName(kind) << "=" << injector.fired(kind);
    }
  }
  os << "\n";
  if (opt.verbose || out.violations != 0) {
    os << ElideTrace(oracle.TraceString(), 40);
  }
  if (opt.verbose || out.check_failures != 0) {
    os << ElideTrace(invariants.TraceString(), 40);
  }
  out.report = os.str();
  return out;
}

// Runs the full mode x plan matrix, printing each run's report and checking
// the safety-matrix expectations. Returns the number of failed expectations.
int RunSuite(const FuzzOptions& opt, std::string* output) {
  std::ostringstream all;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      all << "EXPECTATION FAILED: " << what << "\n";
    }
  };

  const std::vector<FaultPlan> plans = BuildPlans(opt.seed);
  for (ProtectionMode mode : kAllModes) {
    for (const FaultPlan& plan : plans) {
      const RunResult r = RunOne(mode, plan, opt);
      all << r.report;

      const std::string tag =
          std::string(ProtectionModeName(mode)) + " / " + plan.name;
      if (IsStrictlySafe(mode) || mode == ProtectionMode::kOff) {
        expect(r.violations == 0, tag + ": strictly-safe mode must have 0 violations");
      }
      expect(r.check_failures == 0, tag + ": structural invariants must hold");
      if (mode == ProtectionMode::kDeferred && plan.name == "delayed-flush") {
        expect(r.violations > 0,
               tag + ": deferred mode must violate under delayed flushes");
        expect(r.use_after_unmap == r.violations,
               tag + ": deferred violations must all be use-after-unmap");
      }
      if (mode == ProtectionMode::kHugepagePersistent &&
          plan.name == "use-after-release") {
        expect(r.violations > 0,
               tag + ": persistent pools must violate under use-after-release");
      }
      if (plan.name == "inv-stall-drop" &&
          (mode == ProtectionMode::kStrict || mode == ProtectionMode::kFastSafe)) {
        expect(r.inv_retries > 0, tag + ": invalidation retry path must engage");
        expect(r.inv_fallbacks > 0, tag + ": global-flush fallback must engage");
      }
      if (plan.name == "completion-chaos" && r.duplicates_injected > 0 &&
          mode != ProtectionMode::kOff) {
        // kOff performs no unmap bookkeeping, so there is nothing to detect.
        expect(r.double_unmaps > 0,
               tag + ": injected duplicate completions must be detected");
      }
      if (plan.name != "completion-chaos") {
        expect(r.hard_failures == 0, tag + ": no hard failures without duplicates");
      }
    }
  }
  all << (failures == 0 ? "SAFETY MATRIX OK\n" : "SAFETY MATRIX FAILED\n");
  *output = all.str();
  return failures;
}

int Main(int argc, char** argv) {
  FuzzOptions opt;
  bool selftest = false;
  cli::Parse(argc, argv, "safety_fuzz",
             "DMA-safety fuzzer: every protection mode x every fault plan; exits 0\n"
             "only when the per-mode expected-violation matrix holds.",
             {
                 cli::Unsigned("ops", &opt.ops, "operations per (mode, plan) run"),
                 cli::Unsigned("seed", &opt.seed, "seed"),
                 cli::Switch("verbose", &opt.verbose,
                             "print violation and invariant-failure traces"),
                 cli::Switch("selftest-determinism", &selftest,
                             "run the suite twice in-process and compare the reports"),
             });

  std::string output;
  int failures = RunSuite(opt, &output);
  if (selftest) {
    std::string second;
    failures += RunSuite(opt, &second);
    if (second != output) {
      std::fprintf(stdout, "%s", output.c_str());
      std::fprintf(stdout, "DETERMINISM FAILED: two same-seed runs diverged\n");
      return 1;
    }
    output += "DETERMINISM OK\n";
  }
  std::fprintf(stdout, "%s", output.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }

#include "src/refmodel/diff_harness.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <utility>

#include "src/cli/repro.h"
#include "src/driver/dma_api.h"
#include "src/driver/protection_domain.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

// Descriptors still owned by the (simulated) NIC.
struct LiveDesc {
  std::vector<DmaMapping> mappings;
  std::vector<PhysAddr> frames;
  bool persistent_rx = false;  // came from AcquirePersistentDescriptor
};

// One choice per token of an enum's token table, in declaration order.
template <typename E, std::size_t N>
std::vector<std::pair<std::string, E>> TokenChoices(const char* const (&tokens)[N]) {
  std::vector<std::pair<std::string, E>> choices;
  for (std::size_t i = 0; i < N; ++i) {
    choices.emplace_back(tokens[i], static_cast<E>(i));
  }
  return choices;
}

// The environment faults behind each FaultPlanId: a pure function of
// (id, seed), so a repro's seed replays the same fault sequence.
FaultPlan BuildFaultPlan(FaultPlanId id, std::uint64_t seed) {
  FaultPlan plan;
  plan.name = FaultPlanName(id);
  plan.seed = seed;
  auto spec = [&plan](FaultKind kind, double probability, TimeNs magnitude_ns = 1000) {
    FaultSpec s;
    s.kind = kind;
    s.probability = probability;
    s.magnitude_ns = magnitude_ns;
    plan.Add(s);
    return &plan.specs.back();
  };
  switch (id) {
    case FaultPlanId::kNone:
      break;
    case FaultPlanId::kInvStallDrop:
      // The first six requests are lost outright, forcing the full retry
      // ladder and the global-flush fallback; later ones are lost with
      // p=0.2 or stalled past the driver's 50 us wait deadline.
      spec(FaultKind::kInvalidationDrop, 1.0)->op_end = 6;
      spec(FaultKind::kInvalidationDrop, 0.2)->op_start = 6;
      spec(FaultKind::kInvalidationStall, 0.3, 120'000);
      break;
    case FaultPlanId::kWalkerSpike:
      spec(FaultKind::kWalkerLatencySpike, 0.2, 3'000);
      break;
    case FaultPlanId::kAllocPressure:
      // Transient failures early in the run; the driver's IOVA retries and
      // the harness's frame retries must mask them.
      spec(FaultKind::kIovaExhaustion, 0.4)->op_end = 400;
      spec(FaultKind::kFrameAllocFailure, 0.3)->op_end = 400;
      break;
    case FaultPlanId::kCompletionChaos:
      spec(FaultKind::kDescCompletionDuplicate, 0.25);
      spec(FaultKind::kDescCompletionReorder, 0.25, 2'000);
      break;
    case FaultPlanId::kDelayedFlush:
      spec(FaultKind::kDeferredFlushDelay, 1.0)->max_fires = 3;
      break;
  }
  return plan;
}

// The repro file's settings, bound to *config: the one table both
// Serialize and Parse use. An op line holds kind (as a number), core, arg.
cli::ReproFormat DiffReproFormat(DiffConfig* config) {
  return {"fsio-diff-repro v1",
          {cli::OneOf("mode", &config->mode, ModeTokenChoices(), "MODE", ""),
           cli::Unsigned("rcache", &config->enable_rcache, "", 0, 1),
           cli::Unsigned("seed", &config->seed, ""),
           cli::Unsigned("pages_per_chunk", &config->pages_per_chunk, "", 1),
           cli::Unsigned("num_cores", &config->num_cores, "", 1),
           cli::Unsigned("num_domains", &config->num_domains, "", 1),
           cli::OneOf("bug", &config->bug, BugChoices(), "BUG", ""),
           cli::OneOf("fault_plan", &config->fault_plan,
                      TokenChoices<FaultPlanId>(kFaultPlanTokens), "PLAN", "")},
          "op"};
}

constexpr std::size_t kOpFields = 3;

std::vector<cli::Flag> OpFields(DiffOp* op) {
  cli::Choices<OpKind> kinds;
  for (int k = 0; k <= static_cast<int>(OpKind::kDmaRetired); ++k) {
    kinds.emplace_back(std::to_string(k), static_cast<OpKind>(k));
  }
  return {cli::OneOf("kind", &op->kind, std::move(kinds), "KIND", ""),
          cli::Unsigned("core", &op->core, ""), cli::Unsigned("arg", &op->arg, "")};
}

}  // namespace

std::vector<std::pair<std::string, InjectedBug>> BugChoices() {
  return TokenChoices<InjectedBug>(kBugTokens);
}

std::vector<std::pair<std::string, std::vector<FaultPlanId>>> FaultPlanChoices() {
  std::vector<std::pair<std::string, std::vector<FaultPlanId>>> choices = {{"all", {}}};
  for (auto& [token, plan] : TokenChoices<FaultPlanId>(kFaultPlanTokens)) {
    if (plan != FaultPlanId::kNone) {
      choices[0].second.push_back(plan);
    }
    choices.push_back({std::move(token), {plan}});
  }
  return choices;
}

std::vector<std::pair<std::string, std::vector<ProtectionMode>>> ModeSweepChoices() {
  std::vector<std::pair<std::string, std::vector<ProtectionMode>>> choices = {
      {"all", {kAllModes.begin(), kAllModes.end()}}};
  for (auto& [token, mode] : ModeTokenChoices()) {
    choices.push_back({std::move(token), {mode}});
  }
  return choices;
}

std::vector<DiffOp> DifferentialHarness::GenerateOps(const DiffConfig& config) {
  Rng rng(config.seed ^ 0xd1f'f0ac1eULL);
  std::vector<DiffOp> ops;
  ops.reserve(config.num_ops);
  for (std::uint32_t i = 0; i < config.num_ops; ++i) {
    const std::uint64_t roll = rng.NextBelow(100);
    OpKind kind;
    if (roll < 16) {
      kind = OpKind::kMapRx;
    } else if (roll < 30) {
      kind = OpKind::kMapTx;
    } else if (roll < 55) {
      kind = OpKind::kUnmap;
    } else if (roll < 85) {
      kind = OpKind::kDmaLive;
    } else {
      kind = OpKind::kDmaRetired;
    }
    DiffOp op;
    op.kind = kind;
    op.core = static_cast<std::uint32_t>(rng.NextBelow(config.num_cores));
    op.arg = rng.Next();
    ops.push_back(op);
  }
  return ops;
}

DiffResult DifferentialHarness::Run(const DiffConfig& config, const std::vector<DiffOp>& ops) {
  DiffResult out;
  const std::uint32_t num_domains = config.num_domains == 0 ? 1 : config.num_domains;
  const bool multi = num_domains > 1;
  StatsRegistry stats;
  const FaultPlan plan = BuildFaultPlan(config.fault_plan, config.seed);
  FaultInjector injector(plan, &stats);
  InvariantRegistry invariants;
  FrameAllocator frame_alloc;
  frame_alloc.SetFaultInjector(&injector);
  MemorySystem mem(MemoryConfig{}, &stats);

  // One stack per protection domain: the real driver stack, its oracle, the
  // model and the live/retired descriptor pools. A single-domain run is
  // exactly the classic harness (one stack in the host domain); multi-domain
  // runs hang one stack behind each tenant domain of one shared IOMMU, so
  // tenants contend for the same IOTLB/PTcache while each stack's contract
  // is checked independently.
  struct DomainStack {
    std::unique_ptr<ProtectionDomain> driver;
    std::unique_ptr<SafetyOracle> oracle;
    std::unique_ptr<RefModel> model;
    std::vector<LiveDesc> live;
    std::deque<Iova> retired;
  };
  // Multi-domain runs leave this empty table in the (unused) host domain; a
  // single-domain stack replaces it with its own.
  IoPageTable host_pt;
  IommuConfig iommu_config;
  iommu_config.inject_untagged_iotlb = config.bug == InjectedBug::kUntaggedIotlb;
  Iommu iommu(iommu_config, &mem, &host_pt, &stats);
  iommu.SetFaultInjector(&injector);

  ProtectionDomainConfig driver_config;
  driver_config.iova.num_cores = config.num_cores;
  driver_config.iova.enable_rcache = config.enable_rcache;
  driver_config.dma.mode = config.mode;
  driver_config.dma.pages_per_chunk = config.pages_per_chunk;
  driver_config.dma.num_cores = config.num_cores;
  // Keep frees on the issuing core: cross-core migration only perturbs IOVA
  // cache locality, which the contract does not speak about, and removing
  // it makes shrunken repros stabler.
  driver_config.dma.free_migration_fraction = 0.0;
  driver_config.dma.inject_skip_reclaim_invalidation = config.bug == InjectedBug::kEarlyReclaim;
  std::vector<DomainStack> stacks(num_domains);
  for (std::size_t di = 0; di < stacks.size(); ++di) {
    DomainStack& s = stacks[di];
    s.driver = std::make_unique<ProtectionDomain>(
        driver_config, &iommu,
        multi ? ProtectionDomain::Binding::kNewDomain : ProtectionDomain::Binding::kHostDomain,
        &stats);
    // Tenant oracles keep private counts (no registry) so violation
    // attribution stays per-domain instead of blurring across tenants.
    s.oracle = std::make_unique<SafetyOracle>(multi ? nullptr : &stats);
    s.driver->SetOracle(s.oracle.get());
    s.driver->SetFaultInjector(&injector);
    s.driver->RegisterInvariants(&invariants,
                                 multi ? "domain " + std::to_string(di) + ": " : "");
    s.model = std::make_unique<RefModel>(config.mode);
  }

  const UnmapSemantics semantics = UnmapSemanticsFor(config.mode);
  const bool off = semantics == UnmapSemantics::kNoProtection;
  const bool persistent = semantics == UnmapSemantics::kReleaseOnly;
  const bool capability = semantics == UnmapSemantics::kRevokeCapability;
  const bool deferred = semantics == UnmapSemantics::kDeferredInvalidate;
  const bool real_unmaps = !off && !persistent;

  // Advance past the longest possible walk, plus the plan's largest injected
  // walker spike, so pending-walk coalescing (a latency feature, invisible
  // to the contract) never kicks in.
  TimeNs step = 3000;
  for (const FaultSpec& spec : plan.specs) {
    if (spec.kind == FaultKind::kWalkerLatencySpike) {
      step = std::max(step, 3000 + spec.magnitude_ns);
    }
  }
  TimeNs t = 0;
  std::size_t failures_checked = 0;  // invariant failures already judged

  // Transient injected allocation failures are retried; every plan's
  // failure probability is < 1, so the retries terminate.
  auto alloc_frame = [&frame_alloc](bool huge = false) {
    for (;;) {
      if (const PhysAddr f = huge ? frame_alloc.AllocHugeFrame() : frame_alloc.AllocFrame();
          f != kNullFrame) {
        return f;
      }
    }
  };

  auto diverge = [&](std::size_t index, const std::string& why) {
    out.diverged = true;
    out.fail_index = index;
    std::ostringstream os;
    os << "op " << index << " (" << OpKindName(ops[index].kind) << "): " << why;
    out.message = os.str();
  };

  // Cross-checks run after every op, per domain: the real page table and the
  // model must agree on the mapped-page count, the safety oracle's
  // classification counters must match the model's predictions exactly, and
  // no domain may ever consume another domain's cached translation.
  auto check_state = [&](std::size_t index) {
    for (std::size_t di = 0; di < stacks.size(); ++di) {
      const DomainStack& s = stacks[di];
      std::string tag;
      if (multi) {
        tag = "domain " + std::to_string(di) + ": ";
      }
      // Capability mode never touches the IO page table (IOMMU pass-through);
      // the model's mapped set tracks the capability grants instead.
      const std::uint64_t mapped = s.driver->page_table().mapped_pages();
      if (!off && !capability && mapped != s.model->mapped_pages()) {
        std::ostringstream os;
        os << tag << "page table holds " << mapped
           << " pages but the model expects " << s.model->mapped_pages();
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kUseAfterUnmap) !=
          s.model->predicted_use_after_unmap()) {
        std::ostringstream os;
        os << tag << "oracle recorded " << s.oracle->count(SafetyViolationKind::kUseAfterUnmap)
           << " use-after-unmap violations but the model predicts "
           << s.model->predicted_use_after_unmap();
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kStalePtcachePointer) != 0 ||
          s.oracle->count(SafetyViolationKind::kReclaimedTableWalk) != 0) {
        std::ostringstream os;
        os << tag << "oracle recorded stale-PTcache violations (live="
           << s.oracle->count(SafetyViolationKind::kStalePtcachePointer)
           << " reclaimed=" << s.oracle->count(SafetyViolationKind::kReclaimedTableWalk)
           << "); the contract allows none";
        diverge(index, os.str());
        return;
      }
      if (s.oracle->count(SafetyViolationKind::kCrossDomainHit) != 0) {
        std::ostringstream os;
        os << tag << "oracle recorded "
           << s.oracle->count(SafetyViolationKind::kCrossDomainHit)
           << " cross-domain device hits; tenant isolation allows none";
        diverge(index, os.str());
        return;
      }
    }
  };

  auto do_translate = [&](DomainStack& s, std::size_t index, Iova iova_addr) {
    ++out.dmas;
    const TranslationResult res = iommu.Translate(s.driver->id(), iova_addr, t);
    if (res.fault) {
      ++out.faults;
    }
    if (res.stale_use) {
      ++out.stale_uses;
    }
    if (auto err = s.model->CheckTranslation(iova_addr, res); err.has_value()) {
      diverge(index, *err);
    }
  };

  // Capability mode: device access goes through the capability check instead
  // of the (pass-through) IOMMU. A buggy device ignores the verdict, so the
  // access proceeds and the safety oracle sees it land in revoked memory.
  auto do_cap_check = [&](DomainStack& s, std::size_t index, Iova iova_addr) {
    ++out.dmas;
    const bool enforce = config.bug != InjectedBug::kSkipCapabilityCheck;
    const DmaApi::DeviceCheckResult r =
        s.driver->dma().DeviceCheckCapability(iova_addr, 1, t, enforce);
    if (!r.allowed) {
      ++out.faults;
    }
    if (auto err = s.model->CheckCapability(iova_addr, r.allowed); err.has_value()) {
      diverge(index, *err);
    }
  };

  for (std::size_t i = 0; i < ops.size() && !out.diverged; ++i) {
    const DiffOp& op = ops[i];
    // Domain dispatch rides the arg's high bits: independent of the low
    // bits' pool selections, so ops stay self-contained for shrinking.
    DomainStack& s = stacks[multi ? static_cast<std::size_t>((op.arg >> 44) % num_domains) : 0];
    DmaApi& dma = s.driver->dma();
    IoPageTable& pt = s.driver->page_table();
    SafetyOracle& oracle = *s.oracle;
    RefModel& model = *s.model;
    std::vector<LiveDesc>& live = s.live;
    std::deque<Iova>& retired = s.retired;
    ++out.ops_executed;
    t += step;
    switch (op.kind) {
      case OpKind::kMapRx: {
        if (persistent) {
          DmaApi::MapResult r = dma.AcquirePersistentDescriptor(
              op.core, [&] { return alloc_frame(/*huge=*/true); });
          t += r.cpu_ns;
          if (r.mappings.empty()) {
            break;
          }
          for (const DmaMapping& m : r.mappings) {
            const std::uint64_t page = PageNumber(m.iova);
            if (model.IsMapped(page)) {
              model.Reacquire(page);
            } else {
              model.Map(page, m.phys);
            }
          }
          LiveDesc d;
          d.persistent_rx = true;
          d.mappings = std::move(r.mappings);
          live.push_back(std::move(d));
          ++out.maps;
          break;
        }
        LiveDesc d;
        d.frames.reserve(config.pages_per_chunk);
        for (std::uint32_t p = 0; p < config.pages_per_chunk; ++p) {
          d.frames.push_back(alloc_frame());
        }
        DmaApi::MapResult r = dma.MapPages(op.core, d.frames);
        t += r.cpu_ns;
        if (r.mappings.empty()) {
          for (PhysAddr f : d.frames) {
            frame_alloc.FreeFrame(f);
          }
          break;
        }
        if (!off) {
          for (const DmaMapping& m : r.mappings) {
            model.Map(PageNumber(m.iova), m.phys);
          }
        }
        d.mappings = std::move(r.mappings);
        live.push_back(std::move(d));
        ++out.maps;
        break;
      }
      case OpKind::kMapTx: {
        const PhysAddr frame = alloc_frame();
        DmaApi::MapResult r = dma.MapPage(op.core, frame);
        t += r.cpu_ns;
        if (r.mappings.empty()) {
          frame_alloc.FreeFrame(frame);
          break;
        }
        if (!off) {
          for (const DmaMapping& m : r.mappings) {
            const std::uint64_t page = PageNumber(m.iova);
            if (persistent && model.IsMapped(page)) {
              model.Reacquire(page);
            } else {
              model.Map(page, m.phys);
            }
          }
        }
        LiveDesc d;
        d.frames.push_back(frame);
        d.mappings = std::move(r.mappings);
        live.push_back(std::move(d));
        ++out.maps;
        break;
      }
      case OpKind::kUnmap: {
        if (live.empty()) {
          break;
        }
        const std::size_t idx = static_cast<std::size_t>(op.arg % live.size());
        LiveDesc d = std::move(live[idx]);
        live[idx] = std::move(live.back());
        live.pop_back();
        ++out.unmaps;
        if (persistent) {
          if (d.persistent_rx) {
            dma.ReleasePersistentDescriptor(op.core, d.mappings);
          } else {
            DmaApi::UnmapResultInfo r = dma.UnmapDescriptor(op.core, d.mappings, t);
            t += r.cpu_ns;
          }
          for (const DmaMapping& m : d.mappings) {
            model.Release(PageNumber(m.iova));
            retired.push_back(m.iova);
          }
        } else if (config.bug == InjectedBug::kUseAfterUnmap && real_unmaps) {
          // Injected driver bug: the unmap "returns" (the driver considers
          // the pages gone and tells the oracle so) but nothing was torn
          // down — the device keeps full access.
          for (const DmaMapping& m : d.mappings) {
            oracle.OnUnmap(m.iova, 1);
            if (!off) {
              model.Unmap(PageNumber(m.iova));
            }
            retired.push_back(m.iova);
          }
        } else if (config.bug == InjectedBug::kSkipInvalidation && real_unmaps && !deferred) {
          // Injected driver bug: page-table teardown without the IOTLB
          // invalidation the strictly-safe contract requires.
          for (const DmaMapping& m : d.mappings) {
            pt.Unmap(m.iova, kPageSize);
            oracle.OnUnmap(m.iova, 1);
            model.Unmap(PageNumber(m.iova));
            retired.push_back(m.iova);
          }
        } else {
          const std::size_t pending_before = dma.deferred_pending();
          bool duplicate = false;
          if (real_unmaps) {
            if (const FaultDecision late = injector.Sample(FaultKind::kDescCompletionReorder, t);
                late.fire) {
              t += late.magnitude_ns;  // the completion shows up late
            }
            duplicate = injector.Sample(FaultKind::kDescCompletionDuplicate, t).fire;
          }
          DmaApi::UnmapResultInfo r = dma.UnmapDescriptor(op.core, d.mappings, t);
          t += r.cpu_ns;
          if (duplicate) {
            // The device completes the descriptor a second time. The model
            // is unchanged: the driver must detect and report the double
            // unmap instead of tearing anything down again.
            const std::uint64_t reported = stats.Value("dma.double_unmap");
            t += dma.UnmapDescriptor(op.core, d.mappings, t).cpu_ns;
            if (stats.Value("dma.double_unmap") == reported) {
              diverge(i, "duplicate completion was not reported as a double unmap");
            }
          }
          if (!off) {
            for (const DmaMapping& m : d.mappings) {
              model.Unmap(PageNumber(m.iova));
              retired.push_back(m.iova);
            }
            if (deferred && dma.deferred_pending() < pending_before + d.mappings.size()) {
              model.FlushAll();  // threshold reached: the queue was flushed
            }
          }
          for (PhysAddr f : d.frames) {
            frame_alloc.FreeFrame(f);
          }
        }
        while (retired.size() > 512) {
          retired.pop_front();
        }
        break;
      }
      case OpKind::kDmaLive: {
        if (off || live.empty()) {
          break;
        }
        const LiveDesc& d = live[static_cast<std::size_t>(op.arg % live.size())];
        const DmaMapping& m =
            d.mappings[static_cast<std::size_t>((op.arg >> 20) % d.mappings.size())];
        if (capability) {
          do_cap_check(s, i, m.iova);
        } else {
          do_translate(s, i, m.iova);
        }
        break;
      }
      case OpKind::kDmaRetired: {
        if (off || retired.empty()) {
          break;
        }
        const Iova target = retired[static_cast<std::size_t>(op.arg % retired.size())];
        if (capability) {
          do_cap_check(s, i, target);
        } else {
          do_translate(s, i, target);
        }
        break;
      }
    }
    if (!out.diverged) {
      check_state(i);
    }
    if (!out.diverged && (i % 128 == 127 || i + 1 == ops.size())) {
      // Structural invariants; the driver's double-unmap reports are the
      // only failures allowed (the duplicate-completion check judges them).
      invariants.CheckAll(t);
      for (; failures_checked < invariants.failure_count() && !out.diverged;
           ++failures_checked) {
        const InvariantFailure& f = invariants.failures()[failures_checked];
        if (f.name != "dma.double_unmap") {
          diverge(i, "invariant " + f.name + " failed: " + f.detail);
        }
      }
    }
  }
  out.faults_injected = injector.total_fired();
  out.duplicate_completions = injector.fired(FaultKind::kDescCompletionDuplicate);
  out.flush_delays = stats.Value("dma.deferred_flush_delays");
  out.inv_retries = stats.Value("dma.inv_retries");
  out.inv_fallbacks = stats.Value("dma.inv_fallback_flushes");
  out.double_unmaps = stats.Value("dma.double_unmap");
  for (const DomainStack& s : stacks) {
    out.use_after_unmap += s.oracle->count(SafetyViolationKind::kUseAfterUnmap);
  }
  return out;
}

ReproChecker<DiffOp, DiffResult> DifferentialHarness::Checker(const DiffConfig& config,
                                                              DiffRepro* repro) {
  // Ops are self-contained (targets are reduced modulo the live pools), so
  // any subsequence still executes and divergence is monotone in the prefix
  // length — exactly the contract the shared shrinker requires.
  return {"fsio_diff",
          [config](const std::vector<DiffOp>& ops) { return Run(config, ops); },
          [](const DiffResult& r) { return r.diverged; },
          [config](const std::vector<DiffOp>& ops) { return Serialize(config, ops); },
          [repro](const std::string& text, std::string* error) -> std::optional<DiffResult> {
            if (!Parse(text, &repro->config, &repro->ops, error)) {
              return std::nullopt;
            }
            return Run(repro->config, repro->ops);
          }};
}

std::string DifferentialHarness::Serialize(const DiffConfig& config,
                                           const std::vector<DiffOp>& ops) {
  DiffConfig bound = config;
  return cli::WriteRepro(DiffReproFormat(&bound), cli::FormatRecords(ops, OpFields, kOpFields));
}

bool DifferentialHarness::Parse(const std::string& text, DiffConfig* config,
                                std::vector<DiffOp>* ops, std::string* error) {
  *config = DiffConfig{};
  ops->clear();
  if (!cli::ReadRepro(text, DiffReproFormat(config),
                      cli::AppendRecords(ops, OpFields, kOpFields), error)) {
    return false;
  }
  config->num_ops = std::max(config->num_ops, static_cast<std::uint32_t>(ops->size()));
  return true;
}

}  // namespace fsio

// Cluster-scale chaos harness: fault scenarios crossed with every protection
// mode on a 4-host / 2-switch incast cluster.
//
// Each cell of the matrix builds an independent Cluster, arms a
// ClusterFaultController with one scenario's fault events (link flaps, port
// downs, whole-switch failure, packet corruption/loss bursts, host crash and
// recovery, peer death), drives a 3→1 incast through the fault window, and
// then asserts the cluster-scale safety matrix:
//
//   * every scenario, under EVERY protection mode, ends with ZERO safety-
//     oracle violations on every host — a correctly recovered host never
//     lets DMA land in reclaimed frames and never serves a stale
//     translation;
//   * "nic.dma_while_quiesced" stays 0 cluster-wide (the quiesce protocol's
//     own invariant: no DMA is issued between quiesce and resume);
//   * structural invariants (page-table consistency, no overlapping live
//     maps) hold on every host at end of run;
//   * each fabric scenario leaves its fingerprint (link_down / switch_down /
//     corrupted / loss_burst drop counters fire);
//   * the crash scenario recovers exactly once and delivers application
//     bytes after recovery; the peer-death scenario aborts flows via the
//     DCTCP consecutive-timeout ceiling instead of retransmitting forever.
//
// --break-recovery runs a single deliberately broken cell (recovery skips
// the global IOTLB invalidation) and demonstrates the cross-host oracle
// catching it; with --expect-violation the harness then SHRINKS the fault
// event list to a minimal still-failing repro, writes it (with --repro-out,
// to a file) and replays the bytes written, through the shared
// counterexample path of src/refmodel/shrink.h; --replay re-executes such a
// repro byte-deterministically.
//
// All randomness flows from --seed; cells are independent simulations run on
// the SweepRunner pool with slot-per-cell reports emitted in cell order, so
// output is byte-identical across reruns and across --jobs values (checked
// by the chaos_determinism ctest).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/flags.h"
#include "src/cli/repro.h"
#include "src/core/cluster.h"
#include "src/core/cluster_faults.h"
#include "src/core/sweep_runner.h"
#include "src/driver/protection.h"
#include "src/faults/fault_injector.h"
#include "src/faults/invariant_registry.h"
#include "src/faults/safety_oracle.h"
#include "src/refmodel/shrink.h"
#include "src/simcore/time.h"
#include "src/tenant/domain.h"
#include "src/tenant/tenant_system.h"

namespace fsio {
namespace {

struct ChaosOptions {
  TimeNs window = 6 * kNsPerMs;  // base fault window W
  std::uint64_t seed = 1;
  unsigned jobs = 1;
  bool verbose = false;
  bool break_recovery = false;
  bool expect_violation = false;
  bool tenant_crash = false;
  std::string repro_out;
  std::string replay;
};

// One scenario: a named fault-event list plus the expectations it must meet
// in every protection mode.
struct Scenario {
  std::string name;
  std::vector<ClusterFaultEvent> events;
  TimeNs run_until = 0;
  std::uint32_t abort_after_timeouts = 0;  // DCTCP peer-death ceiling (0=off)
  bool expect_link_down = false;
  bool expect_switch_down = false;
  bool expect_corrupted = false;
  bool expect_loss_burst = false;
  bool expect_recovery = false;     // exactly one crash + recovery + progress
  bool expect_flow_aborts = false;  // peer never recovers; senders abort
};

// The cluster fault taxonomy exercised against every protection mode. All
// times derive from the base window W so --window scales the whole matrix.
std::vector<Scenario> BuildScenarios(TimeNs w) {
  std::vector<Scenario> out;

  {
    // Short flap of sender host 1's access link mid-run; ACK and data
    // traffic over that port drops for W/12, then DCTCP recovers.
    Scenario s;
    s.name = "link-flap";
    s.run_until = w;
    s.expect_link_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kLinkFlap;
    e.at = w / 3;
    e.duration_ns = w / 12;
    e.host = 1;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Long port-down on sender host 2: half the run with one incast source
    // dark, then the link returns.
    Scenario s;
    s.name = "port-down";
    s.run_until = w;
    s.expect_link_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kSwitchPortDown;
    e.at = w / 6;
    e.duration_ns = w / 2;
    e.host = 2;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Whole leaf switch 1 (hosts 1 and 3) black-holes for a quarter window.
    Scenario s;
    s.name = "switch-failure";
    s.run_until = w;
    s.expect_switch_down = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kSwitchFailure;
    e.at = w / 4;
    e.duration_ns = w / 4;
    e.switch_id = 1;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Fabric-wide low-rate packet corruption (CRC drops on every port).
    Scenario s;
    s.name = "corruption";
    s.run_until = w;
    s.expect_corrupted = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kPacketCorruption;
    e.at = w / 6;
    e.duration_ns = w / 2;
    e.any_port = true;
    e.probability = 0.02;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Heavy loss burst pinned to receiver host 0's access link.
    Scenario s;
    s.name = "loss-burst";
    s.run_until = w;
    s.expect_loss_burst = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kPacketLossBurst;
    e.at = w / 3;
    e.duration_ns = w / 6;
    e.host = 0;
    e.probability = 0.3;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Receiver host 0 crashes with DMA in flight, recovers after W/6: NIC
    // quiesce + drain, unmap-all, frame reclaim, global invalidation, ring
    // re-registration — then the incast must make progress again.
    Scenario s;
    s.name = "host-crash";
    s.run_until = w;
    s.expect_recovery = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kHostCrash;
    e.at = w / 3;
    e.duration_ns = w / 6;
    e.host = 0;
    s.events.push_back(e);
    out.push_back(s);
  }
  {
    // Receiver host 0 dies and never comes back. Senders must abort via the
    // consecutive-RTO ceiling instead of retransmitting into the dead host
    // forever. The horizon is crash time plus a fixed allowance for the RTO
    // ladder (min_rto 1 ms doubling: 3 consecutive timeouts land within
    // ~7 ms of the crash), so shrinking --window cannot starve the ladder.
    Scenario s;
    s.name = "peer-death";
    s.run_until = w / 4 + 10 * kNsPerMs;
    s.abort_after_timeouts = 3;
    s.expect_flow_aborts = true;
    ClusterFaultEvent e;
    e.kind = FaultKind::kHostCrash;
    e.at = w / 4;
    e.duration_ns = 0;  // never recover
    e.host = 0;
    s.events.push_back(e);
    out.push_back(s);
  }

  return out;
}

struct CellResult {
  std::string report;
  bool cancelled = false;
  std::uint64_t violations = 0;
  std::uint64_t reclaimed_frame = 0;
  std::uint64_t stale_translation = 0;
  std::uint64_t use_after_unmap = 0;
  std::uint64_t check_failures = 0;
  std::uint64_t dma_while_quiesced = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t flow_aborts = 0;
  std::uint64_t link_down = 0;
  std::uint64_t switch_down = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t loss_burst = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t post_recovery_bytes = 0;
};

// Runs one (mode, scenario) cell: an independent 4-host / 2-switch cluster
// with a 3→1 incast, the scenario's faults armed, and full safety
// instrumentation. `broken` skips the recovery global invalidation — the
// intentional bug the cross-host oracle must catch.
CellResult RunCell(ProtectionMode mode, const Scenario& scenario, const ChaosOptions& opt,
                   bool broken, const std::atomic<bool>& cancel) {
  ClusterConfig config;
  config.num_hosts = 4;
  config.num_switches = 2;
  config.cores = 2;
  config.ring_size_pkts = 128;
  config.mode = mode;
  config.dctcp.abort_after_timeouts = scenario.abort_after_timeouts;
  config.host.skip_recovery_invalidation = broken;

  Cluster cluster(config);
  cluster.EnableFaultHarness();

  ClusterFaultController controller(&cluster, opt.seed);
  for (const ClusterFaultEvent& e : scenario.events) {
    controller.Add(e);
  }
  controller.Arm();

  // 3→1 incast: hosts 1..3 each run `cores` unbounded flows into host 0.
  for (std::uint32_t src = 1; src < config.num_hosts; ++src) {
    cluster.AddBulkFlows(src, /*dst_host=*/0, config.cores);
  }

  // The scenario's first crash, if any: its host's counters are reported,
  // and the post-recovery progress probe snapshots host 0's delivered bytes
  // well after its recovery completes; the final count must exceed it.
  const auto crash =
      std::find_if(scenario.events.begin(), scenario.events.end(),
                   [](const ClusterFaultEvent& e) { return e.kind == FaultKind::kHostCrash; });
  const std::uint32_t crash_host = crash == scenario.events.end() ? 0 : crash->host;
  std::uint64_t mark_bytes = 0;
  if (scenario.expect_recovery) {
    const TimeNs mark_at = crash->at + crash->duration_ns + opt.window / 12;
    cluster.ev().ScheduleAt(mark_at, [&cluster, &mark_bytes] {
      mark_bytes = cluster.host(0).app_bytes_delivered();
    });
  }

  CellResult r;
  // Sliced run so the sweep watchdog's cancel flag is honoured between
  // deterministic chunks (cancellation only ever loses a report, never
  // perturbs a completed one).
  constexpr int kSlices = 8;
  for (int slice = 1; slice <= kSlices; ++slice) {
    if (cancel.load(std::memory_order_relaxed)) {
      r.cancelled = true;
      r.report = "=== scenario=" + scenario.name + " mode=" + ModeToken(mode) +
                 " ===\nTIMED OUT (partial cell dropped)\n";
      return r;
    }
    cluster.RunUntil(scenario.run_until * slice / kSlices);
  }
  const TimeNs now = cluster.ev().now();

  std::ostringstream vio;
  for (std::uint32_t h = 0; h < config.num_hosts; ++h) {
    SafetyOracle* oracle = cluster.oracle(h);
    InvariantRegistry* inv = cluster.invariants(h);
    r.violations += oracle->total_violations();
    r.reclaimed_frame += oracle->count(SafetyViolationKind::kDmaToReclaimedFrame);
    r.stale_translation += oracle->count(SafetyViolationKind::kStaleDmaTranslation);
    r.use_after_unmap += oracle->count(SafetyViolationKind::kUseAfterUnmap);
    r.check_failures += inv->CheckAll(now);
    r.check_failures += inv->failure_count();
    StatsRegistry& hs = cluster.host(h).stats();
    r.dma_while_quiesced += hs.Value("nic.dma_while_quiesced");
    r.flow_aborts += hs.Value("dctcp.flow_aborts");
    if (oracle->total_violations() != 0) {
      vio << "host " << h << " violations:\n";
      vio << ElideTrace(oracle->TraceString(), 20);
    }
  }
  StatsRegistry& crash_stats = cluster.host(crash_host).stats();
  r.crashes = crash_stats.Value("host.crashes");
  r.recoveries = crash_stats.Value("host.recoveries");
  for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
    const std::string p = "switch" + std::to_string(s);
    StatsRegistry& ss = cluster.switch_stats();
    r.link_down += ss.Value(p + ".link_down_drops");
    r.switch_down += ss.Value(p + ".switch_down_drops");
    r.corrupted += ss.Value(p + ".corrupted_drops");
    r.loss_burst += ss.Value(p + ".loss_burst_drops");
  }
  r.app_bytes = cluster.host(0).app_bytes_delivered();
  if (scenario.expect_recovery && r.app_bytes > mark_bytes) {
    r.post_recovery_bytes = r.app_bytes - mark_bytes;
  }

  std::ostringstream os;
  os << "=== scenario=" << scenario.name << " mode=" << ModeToken(mode)
     << (broken ? " broken-recovery" : "") << " ===\n";
  os << "violations=" << r.violations << " reclaimed_frame=" << r.reclaimed_frame
     << " stale_translation=" << r.stale_translation
     << " use_after_unmap=" << r.use_after_unmap
     << " invariant_failures=" << r.check_failures << "\n";
  os << "crashes=" << r.crashes << " recoveries=" << r.recoveries
     << " dma_while_quiesced=" << r.dma_while_quiesced << " flow_aborts=" << r.flow_aborts
     << " crash_rx_dropped=" << crash_stats.Value("host.crash_rx_dropped")
     << " rx_quiesced_drops=" << crash_stats.Value("nic.rx_quiesced_drops") << "\n";
  os << "fabric: link_down=" << r.link_down << " switch_down=" << r.switch_down
     << " corrupted=" << r.corrupted << " loss_burst=" << r.loss_burst << "\n";
  os << "app_bytes=" << r.app_bytes;
  if (scenario.expect_recovery) {
    os << " post_recovery_bytes=" << r.post_recovery_bytes;
  }
  os << "\n";
  if (opt.verbose || r.violations != 0) {
    os << vio.str();
  }
  r.report = os.str();
  return r;
}

// Runs the full scenario x mode matrix on the SweepRunner pool and checks
// every expectation. Returns the number of failed expectations.
int RunSuite(const ChaosOptions& opt, std::string* output) {
  const std::vector<Scenario> scenarios = BuildScenarios(opt.window);
  const std::size_t n = scenarios.size() * kAllModes.size();
  std::vector<CellResult> cells(n);

  SweepRunner runner(opt.jobs);
  const SweepRunReport sweep = runner.RunCancellable(
      n,
      [&](std::size_t i, const std::atomic<bool>& cancel) {
        const Scenario& scenario = scenarios[i / kAllModes.size()];
        const ProtectionMode mode = kAllModes[i % kAllModes.size()];
        cells[i] = RunCell(mode, scenario, opt, /*broken=*/false, cancel);
      },
      SweepRunner::DefaultDeadlineMs());

  std::ostringstream all;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      all << "EXPECTATION FAILED: " << what << "\n";
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Scenario& scenario = scenarios[i / kAllModes.size()];
    const CellResult& r = cells[i];
    all << r.report;
    const std::string tag = scenario.name + " / " + ModeToken(kAllModes[i % kAllModes.size()]);
    if (r.cancelled) {
      expect(false, tag + ": cell hit the sweep deadline");
      continue;
    }
    // The cluster-scale safety matrix: recovery is SAFE in every mode.
    expect(r.violations == 0, tag + ": zero safety-oracle violations after recovery");
    expect(r.check_failures == 0, tag + ": structural invariants must hold");
    expect(r.dma_while_quiesced == 0, tag + ": no DMA between quiesce and resume");
    if (scenario.expect_link_down) {
      expect(r.link_down > 0, tag + ": port-down drops must be observed");
    }
    if (scenario.expect_switch_down) {
      expect(r.switch_down > 0, tag + ": switch-failure drops must be observed");
    }
    if (scenario.expect_corrupted) {
      expect(r.corrupted > 0, tag + ": corruption drops must be observed");
    }
    if (scenario.expect_loss_burst) {
      expect(r.loss_burst > 0, tag + ": loss-burst drops must be observed");
    }
    if (scenario.expect_recovery) {
      expect(r.crashes == 1 && r.recoveries == 1, tag + ": exactly one crash + recovery");
      expect(r.post_recovery_bytes > 0, tag + ": application progress after recovery");
    }
    if (scenario.expect_flow_aborts) {
      expect(r.crashes == 1 && r.recoveries == 0, tag + ": peer stays dead");
      expect(r.flow_aborts > 0, tag + ": senders must abort into the dead peer");
    }
    expect(r.app_bytes > 0, tag + ": incast must deliver bytes");
  }
  if (!sweep.ok()) {
    all << "(" << sweep.timed_out.size() << " cell(s) timed out under "
        << "FSIO_SWEEP_DEADLINE_MS; rerun without a deadline for full coverage)\n";
  }
  all << (failures == 0 ? "CHAOS MATRIX OK\n" : "CHAOS MATRIX FAILED\n");
  *output = all.str();
  return failures;
}

// ---------------------------------------------------------------------------
// Multi-tenant crash scenario (tenant_crash): one protection domain crashes
// mid-flight on a shared IOMMU and is recovered with a domain-selective
// invalidation. Run for every protection mode; in each cell:
//
//   * the co-resident tenant keeps making progress while the victim is dead;
//   * the crashed tenant's stranded in-flight descriptor is still device-
//     visible before recovery (we replay a device access to prove it) and,
//     in every mode with something to revoke, is refused cleanly after;
//   * recovery clears ONLY the crashed domain's IOTLB entries — the
//     co-tenant's resident entries are counted before and after;
//   * the recovered tenant resumes, and the safety oracles of both domains
//     end at zero violations, including zero dma_cross_domain_hit.

// Whether the device can still reach `iova` through tenant 0's domain, and
// whether the answer came from stale cached state: a translation in the
// IOMMU modes, the capability check in capability mode. Off has nothing to
// revoke: every address stays reachable.
struct DeviceView {
  bool visible = true;
  bool stale_use = false;
};
DeviceView ViewStranded(TenantSystem& system, ProtectionMode mode, Iova iova) {
  switch (UnmapSemanticsFor(mode)) {
    case UnmapSemantics::kNoProtection:
      return {};
    case UnmapSemantics::kRevokeCapability:
      return {system.domain(0).dma().DeviceCheckCapability(iova, 1, system.now()).allowed};
    case UnmapSemantics::kSyncInvalidate:
    case UnmapSemantics::kDeferredInvalidate:
    case UnmapSemantics::kReleaseOnly:
      break;
  }
  const TranslationResult tr = system.iommu().Translate(system.domain(0).id(), iova, system.now());
  return {!tr.fault, tr.stale_use};
}

int RunTenantCrash(std::string* output) {
  std::ostringstream all;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      all << "EXPECTATION FAILED: " << what << "\n";
    }
  };

  for (ProtectionMode mode : kAllModes) {
    const std::string tag = std::string("tenant-crash / ") + ModeToken(mode);
    TenantSystemConfig config;
    TenantConfig victim;
    victim.mode = mode;
    victim.latency_critical = true;
    victim.weight = 1;
    config.tenants.push_back(victim);
    TenantConfig co;
    co.mode = mode;
    co.latency_critical = true;  // closed-loop, so `ops` measures progress
    co.weight = 2;
    config.tenants.push_back(co);
    config.churn_pages = 8;  // keep both working sets resident in the IOTLB
    TenantSystem system(config);

    system.RunRounds(100);
    system.CrashTenant(0);
    const std::uint64_t co_ops_at_crash = system.Report(1).ops;
    const std::uint64_t victim_ops_at_crash = system.Report(0).ops;
    system.RunRounds(50);
    const std::uint64_t co_ops_during = system.Report(1).ops;
    expect(co_ops_during > co_ops_at_crash,
           tag + ": co-resident tenant keeps running while the victim is down");

    // The stranded in-flight descriptor is the recovery hazard: the device
    // can still use it (legally — the driver never unmapped it).
    const std::vector<Iova> stranded = system.StrandedIovas(0);
    const DomainId crashed_id = system.domain(0).id();
    const DomainId co_id = system.domain(1).id();
    expect(!stranded.empty(), tag + ": crash strands an in-flight descriptor");
    if (!stranded.empty()) {
      expect(ViewStranded(system, mode, stranded.front()).visible,
             tag + ": stranded descriptor still device-visible pre-recovery");
    }
    const SetAssocCache& iotlb = system.iommu().iotlb();
    const std::uint64_t co_resident_before =
        iotlb.CountMatching(kDomainFieldMask, DomainTagBits(co_id));
    if (UsesIommu(mode)) {
      expect(co_resident_before > 0, tag + ": co-tenant holds resident IOTLB entries");
    }

    system.RecoverTenant(0);
    expect(iotlb.CountMatching(kDomainFieldMask, DomainTagBits(crashed_id)) == 0,
           tag + ": recovery clears every crashed-domain IOTLB entry");
    expect(iotlb.CountMatching(kDomainFieldMask, DomainTagBits(co_id)) == co_resident_before,
           tag + ": domain-selective invalidation leaves the co-tenant resident");
    if (!stranded.empty() && UnmapSemanticsFor(mode) != UnmapSemantics::kNoProtection) {
      const DeviceView post = ViewStranded(system, mode, stranded.front());
      expect(!post.visible && !post.stale_use,
             tag + ": stranded descriptor is revoked cleanly after recovery");
    }

    system.RunRounds(50);
    const TenantReport victim_final = system.Report(0);
    const TenantReport co_final = system.Report(1);
    expect(victim_final.ops > victim_ops_at_crash,
           tag + ": recovered tenant resumes making progress");
    expect(victim_final.violations == 0 && co_final.violations == 0,
           tag + ": zero safety-oracle violations in both domains");
    expect(victim_final.cross_domain == 0 && co_final.cross_domain == 0,
           tag + ": zero cross-domain hits");
    expect(victim_final.faulted_dmas == 0 && co_final.faulted_dmas == 0,
           tag + ": every DMA lands in both domains");
    expect(system.stats().Value("iommu.cross_domain_hits") == 0,
           tag + ": IOMMU-wide cross-domain hit counter stays zero");

    all << "=== scenario=tenant-crash mode=" << ModeToken(mode) << " ===\n";
    all << "victim_ops=" << victim_final.ops << " co_ops=" << co_final.ops
        << " stranded=" << stranded.size()
        << " co_resident=" << co_resident_before
        << " violations=" << victim_final.violations + co_final.violations
        << " cross_domain=" << victim_final.cross_domain + co_final.cross_domain << "\n";
  }
  all << (failures == 0 ? "TENANT CRASH MATRIX OK\n" : "TENANT CRASH MATRIX FAILED\n");
  *output = all.str();
  return failures;
}

// ---------------------------------------------------------------------------
// Broken-recovery demonstration: repro files, shrinking, replay.

// The repro file's settings, bound to *opt and *mode: the one table both
// ChaosChecker's write and read use. An event line is its EventFields (the
// same text as the event's ToString()): its kind, then name=value fields.
cli::ReproFormat ChaosReproFormat(ChaosOptions* opt, ProtectionMode* mode) {
  return {"fsio-chaos-repro v1",
          {cli::Unsigned("seed", &opt->seed, ""), cli::Unsigned("window", &opt->window, "", 1),
           cli::OneOf("mode", mode, ModeTokenChoices(), "MODE", ""),
           cli::Unsigned("break-recovery", &opt->break_recovery, "", 0, 1)},
          "event"};
}

std::vector<cli::Flag> EventFields(ClusterFaultEvent* e) {
  cli::Choices<FaultKind> kinds;
  for (int k = 0; k < static_cast<int>(FaultKind::kCount); ++k) {
    kinds.emplace_back(FaultKindName(static_cast<FaultKind>(k)), static_cast<FaultKind>(k));
  }
  return {cli::OneOf("kind", &e->kind, std::move(kinds), "KIND", ""),
          cli::Unsigned("at", &e->at, ""),
          cli::Unsigned("dur", &e->duration_ns, ""),
          cli::Unsigned("switch", &e->switch_id, ""),
          cli::Unsigned("host", &e->host, ""),
          cli::Unsigned("any_port", &e->any_port, "", 0, 1),
          cli::Double("p", &e->probability, "")};
}

// Runs one broken-recovery cell over an explicit event list.
CellResult RunBrokenCell(const std::vector<ClusterFaultEvent>& events, ProtectionMode mode,
                         const ChaosOptions& opt) {
  Scenario s;
  s.name = "host-crash-broken";
  s.events = events;
  s.run_until = opt.window;
  s.expect_recovery = std::any_of(events.begin(), events.end(), [](const ClusterFaultEvent& e) {
    return e.kind == FaultKind::kHostCrash;
  });
  static const std::atomic<bool> kNeverCancelled{false};
  return RunCell(mode, s, opt, opt.break_recovery, kNeverCancelled);
}

// A repro file's contents.
struct ChaosRepro {
  ChaosOptions opt;
  ProtectionMode mode = ProtectionMode::kFastSafe;
  std::vector<ClusterFaultEvent> events;
};

// The broken-recovery cell's side of the shared counterexample path
// (src/refmodel/shrink.h): runs candidate events in fast-safe mode under
// `opt`, writes the repro text, and reads text back (settings absent from it
// keep `opt`'s) into *repro. A repro of a broken recovery reproduces when
// the oracle reports violations, a repro of a healthy run when it reports
// none.
ReproChecker<ClusterFaultEvent, CellResult> ChaosChecker(const ChaosOptions& opt,
                                                         ChaosRepro* repro) {
  *repro = {opt, ProtectionMode::kFastSafe, {}};
  return {"fsio_chaos",
          [opt](const std::vector<ClusterFaultEvent>& events) {
            return RunBrokenCell(events, ProtectionMode::kFastSafe, opt);
          },
          [repro](const CellResult& r) {
            return repro->opt.break_recovery ? r.violations > 0 : r.violations == 0;
          },
          [bound = ChaosRepro{opt, ProtectionMode::kFastSafe, {}}](
              const std::vector<ClusterFaultEvent>& events) mutable {
            return cli::WriteRepro(ChaosReproFormat(&bound.opt, &bound.mode),
                                   cli::FormatRecords(events, EventFields, 1));
          },
          [opt, repro](const std::string& text, std::string* error) -> std::optional<CellResult> {
            *repro = {opt, ProtectionMode::kFastSafe, {}};
            if (!cli::ReadRepro(text, ChaosReproFormat(&repro->opt, &repro->mode),
                                cli::AppendRecords(&repro->events, EventFields, 1), error)) {
              return std::nullopt;
            }
            return RunBrokenCell(repro->events, repro->mode, repro->opt);
          }};
}

// The --break-recovery entry point: crash host 0 in fast-safe mode, with
// recovery that skips the global invalidation, plus a link flap and a loss
// burst. The shrinker keeps the crash, which the bug needs; at the default
// seed and window it drops both other events (1 of 3 events remain).
int RunBrokenRecovery(const ChaosOptions& opt, std::string* output) {
  const TimeNs w = opt.window;

  std::vector<ClusterFaultEvent> events;
  {
    ClusterFaultEvent crash;
    crash.kind = FaultKind::kHostCrash;
    crash.at = w / 3;
    crash.duration_ns = w / 6;
    crash.host = 0;
    events.push_back(crash);
    ClusterFaultEvent flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.at = w / 8;
    flap.duration_ns = w / 16;
    flap.host = 2;
    events.push_back(flap);
    ClusterFaultEvent noise_loss;
    noise_loss.kind = FaultKind::kPacketLossBurst;
    noise_loss.at = w / 2;
    noise_loss.duration_ns = w / 8;
    noise_loss.host = 1;
    noise_loss.probability = 0.1;
    events.push_back(noise_loss);
  }

  std::ostringstream all;
  ChaosRepro repro;
  const ReproChecker<ClusterFaultEvent, CellResult> checker = ChaosChecker(opt, &repro);
  const CellResult full = checker.run(events);
  all << full.report;

  // A broken run that passes is an error with or without
  // --expect-violation; the flag only controls whether we shrink.
  int failures = 0;
  if (full.violations == 0) {
    all << "EXPECTATION FAILED: broken recovery must be caught by the oracle\n";
    ++failures;
  } else if (opt.expect_violation) {
    // Fault events are independent, so every subset is a runnable cell.
    const auto cx = ShrinkCounterexample(checker, events, events.size() - 1, full, std::nullopt,
                                         opt.repro_out);
    all << "minimal repro (" << cx.shrunk.ops.size() << " of " << events.size() << " events, "
        << cx.shrunk.runs << " shrink runs, " << cx.shrunk.result.violations
        << " violations):\n";
    for (const ClusterFaultEvent& e : cx.shrunk.ops) {
      all << "  event " << e.ToString() << "\n";
    }
    if (!opt.repro_out.empty()) {
      all << "repro written to " << opt.repro_out << "\n";
    }
    if (cx.replay != ReplayVerdict::kReproduced) {
      all << "EXPECTATION FAILED: the written repro must replay the violation\n";
      ++failures;
    }
  }
  all << (failures == 0 ? "BROKEN RECOVERY CAUGHT\n" : "BROKEN RECOVERY MISSED\n");
  *output = all.str();
  return failures;
}

int Replay(const ChaosOptions& opt) {
  ChaosRepro repro;
  return ReplayReproFile(
      ChaosChecker(opt, &repro), opt.replay,
      [&](const CellResult& r, bool reproduced) {
        std::printf("replaying %zu event(s), mode=%s seed=%llu window=%llu break-recovery=%d\n"
                    "%s%s",
                    repro.events.size(), ModeToken(repro.mode),
                    static_cast<unsigned long long>(repro.opt.seed),
                    static_cast<unsigned long long>(repro.opt.window),
                    repro.opt.break_recovery ? 1 : 0, r.report.c_str(),
                    reproduced ? "REPLAY REPRODUCED\n"
                               : "REPLAY FAILED: behaviour did not reproduce\n");
      });
}

int Main(int argc, char** argv) {
  ChaosOptions opt;
  cli::Parse(
      argc, argv, "fsio_chaos",
      "Cluster chaos matrix: fault scenarios x every protection mode on a 4-host,\n"
      "2-switch incast; every cell must end with zero safety-oracle violations.",
      {
          cli::Unsigned("window", &opt.window, "base fault window in simulated ns", 1),
          cli::Unsigned("seed", &opt.seed, "seed"),
          cli::Unsigned("jobs", &opt.jobs, "matrix worker threads"),
          cli::Switch("verbose", &opt.verbose, "print violation traces for every cell"),
          cli::Switch("break-recovery", &opt.break_recovery,
                      "run one cell whose recovery skips the global IOTLB invalidation"),
          cli::Switch("expect-violation", &opt.expect_violation,
                      "with --break-recovery: shrink the caught violation to a minimal repro"),
          cli::String("repro-out", &opt.repro_out, "FILE", "write the shrunken repro here"),
          cli::Switch("tenant-crash", &opt.tenant_crash,
                      "run the multi-tenant crash matrix instead"),
          cli::String("replay", &opt.replay, "FILE", "replay a repro file"),
      });

  if (!opt.replay.empty()) {
    return Replay(opt);
  }
  std::string output;
  int failures;
  if (opt.tenant_crash) {
    failures = RunTenantCrash(&output);
  } else if (opt.break_recovery) {
    failures = RunBrokenRecovery(opt, &output);
  } else {
    failures = RunSuite(opt, &output);
  }
  std::fprintf(stdout, "%s", output.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }

// sim_bench: one repetition of one simulator benchmark workload.
//
// Builds a Testbed, attaches the workload generated from --seed, runs the
// simulated warm-up (timed as set-up) and then advances the measured span in
// fixed simulated slices through Cluster::RunUntil, timing every slice on the
// host clock. It prints one JSON object on stdout: host timings, the
// simulated counters the correctness gate compares, and the per-layer call
// counts read from the simulator's public counters.
//
// With --trace 1 it also records every layer counter at each slice boundary
// and afterwards calibrates host ns per call of each layer's public
// functions on standalone objects built with the workload's configuration
// and fed its mode's address pattern; counts x ns per call, minus each
// call's children, give every layer's self time. Nothing inside src/ is
// instrumented.
//
//   sim_bench --workload iperf_strict --seed 1 [--trace 1]
//             [--warmup-ms W --span-ms S --slices N]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/redis.h"
#include "src/apps/request_response.h"
#include "src/cache/set_assoc_cache.h"
#include "src/core/testbed.h"
#include "src/driver/dma_api.h"
#include "src/iommu/iommu.h"
#include "src/iova/iova_allocator.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/event_queue.h"

namespace {

using namespace fsio;
using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, std::uint64_t>;
using Values = std::map<std::string, double>;

// The three workloads. Each is one long single point; why each is in the
// set is in README.md.
struct Workload {
  const char* name;
  ProtectionMode mode;
  std::uint32_t cores;
  std::uint32_t mtu_bytes;
  std::uint32_t ring_size_pkts;
  std::uint32_t iperf_flows;    // bulk flows host0 -> host1 (0 for Redis)
  std::uint32_t redis_clients;  // Redis SET clients host0 -> host1 (0 for iperf)
  double warmup_ms;
  double span_ms;
  std::uint32_t slices;
};

constexpr Workload kWorkloads[] = {
    {"iperf_strict", ProtectionMode::kStrict, 5, 4096, 256, 40, 0, 20.0, 100.0, 1000},
    {"iperf_off", ProtectionMode::kOff, 5, 4096, 256, 40, 0, 20.0, 300.0, 1000},
    {"redis_fastsafe", ProtectionMode::kFastSafe, 8, 9000, 256, 0, 8, 20.0, 100.0, 1000},
};

// Redis value sizes are drawn per client from [kMinValueBytes, kMaxValueBytes].
constexpr std::uint64_t kMinValueBytes = 4096;
constexpr std::uint64_t kMaxValueBytes = 8192;

// Seeded generator for the workload inputs (SplitMix64: same seed, same
// inputs, independent of the standard library's distributions).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  std::uint64_t state_;
};

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double NsPer(double seconds, double calls) { return calls > 0 ? seconds * 1e9 / calls : 0.0; }
TimeNs MsToNs(double ms) { return static_cast<TimeNs>(ms * static_cast<double>(kNsPerMs)); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// The simulation under test.

struct Sim {
  std::unique_ptr<Testbed> testbed;
  std::vector<std::unique_ptr<RequestResponseApp>> apps;
  std::vector<std::uint64_t> value_bytes;  // per Redis client (manifest)
  std::vector<TimeNs> start_offsets_ns;    // per flow or client (manifest)
};

TestbedConfig MakeConfig(const Workload& w) {
  TestbedConfig config;
  config.mode = w.mode;
  config.cores = w.cores;
  config.mtu_bytes = w.mtu_bytes;
  config.ring_size_pkts = w.ring_size_pkts;
  return config;
}

// Attaches the seeded workload. The simulator only receives the generated
// flows and apps: each one starts at a seeded offset inside the first half
// of the warm-up, and each Redis client gets a seeded value size.
void Attach(const Workload& w, std::uint64_t seed, TimeNs warmup_ns, Sim* sim) {
  SplitMix rng(seed);
  Testbed& tb = *sim->testbed;
  const TimeNs window = warmup_ns / 2 > 0 ? warmup_ns / 2 : 1;
  for (std::uint32_t i = 0; i < w.iperf_flows; ++i) {
    const std::uint32_t core = i % w.cores;
    DctcpSender* sender = tb.AddFlow(0, 1, core, core);
    const TimeNs at = rng.Below(window);
    sim->start_offsets_ns.push_back(at);
    tb.ev().ScheduleAt(at, [sender] { sender->EnqueueAppBytes(1ULL << 62); });
  }
  for (std::uint32_t i = 0; i < w.redis_clients; ++i) {
    const std::uint64_t value = kMinValueBytes + rng.Below(kMaxValueBytes - kMinValueBytes + 1);
    RequestResponseConfig app = RedisSetConfig(value);
    app.client_core = i % w.cores;
    app.server_core = i % w.cores;
    sim->apps.push_back(std::make_unique<RequestResponseApp>(&tb, app));
    RequestResponseApp* raw = sim->apps.back().get();
    const TimeNs at = rng.Below(window);
    sim->value_bytes.push_back(value);
    sim->start_offsets_ns.push_back(at);
    tb.ev().ScheduleAt(at, [raw] { raw->Start(); });
  }
}

// Simulated results the correctness gate compares exactly, per host.
constexpr const char* kCheckCounters[] = {
    "host.app_rx_bytes",     "nic.rx_packets",        "nic.rx_wire_bytes",
    "nic.drops_buffer",      "nic.drops_nodesc",      "nic.tx_packets",
    "iommu.iotlb_miss",      "iommu.ptcache_l1_miss", "iommu.ptcache_l2_miss",
    "iommu.ptcache_l3_miss", "iommu.mem_reads",       "iommu.inv_requests",
    "dma.map_ops",           "dctcp.retransmits",
};

// Layer counters summed over both hosts (both run the modelled datapath).
constexpr const char* kLayerCounters[] = {
    "mem.accesses",       "mem.queued_ns",    "pcie.write_tlps",
    "pcie.read_tlps",     "pcie.stall_ns",    "iommu.translations",
    "iommu.iotlb_miss",   "iommu.mem_reads",  "iommu.inv_requests",
    "iommu.faults",       "dma.map_ops",      "dma.unmap_ops",
    "dma.reclaim_invalidations", "iova.cache_hits", "iova.cache_misses",
    "iova.tree_allocs",   "nic.rx_packets",   "nic.drops_buffer",
    "nic.drops_nodesc",   "nic.tx_packets",   "nic.desc_fetches",
    "dctcp.retransmits",
};

// Receive-host counters: the paper's per-page rates are per page of data
// received on host 1.
constexpr const char* kRxHostCounters[] = {
    "nic.rx_wire_bytes", "iommu.iotlb_miss", "iommu.mem_reads", "pcie.stall_ns",
};

// Index 0 is the IOTLB, 1..3 the PTcache of that level.
constexpr const char* kCacheNames[] = {"iotlb", "l1", "l2", "l3"};

const SetAssocCache& CacheOf(const Iommu& iommu, int index) {
  return index == 0 ? iommu.iotlb() : iommu.ptcache(index);
}

// Tag a page walk for `iova` uses in cache `index`.
std::uint64_t TagOf(int index, Iova iova) {
  return index == 0 ? PageNumber(iova) : LevelTag(iova, index);
}

std::uint64_t AppsCompleted(const Sim& sim) {
  std::uint64_t n = 0;
  for (const auto& app : sim.apps) {
    n += app->completed();
  }
  return n;
}

Counts CheckCounts(Sim& sim) {
  Counts c;
  for (std::uint32_t h = 0; h < 2; ++h) {
    const StatsRegistry& stats = sim.testbed->host(h).stats();
    for (const char* name : kCheckCounters) {
      c["h" + std::to_string(h) + "." + name] = stats.Value(name);
    }
  }
  c["apps.completed"] = AppsCompleted(sim);
  return c;
}

Counts LayerCounts(Sim& sim) {
  Counts c;
  for (const char* name : kLayerCounters) {
    c[name] = sim.testbed->host(0).stats().Value(name) + sim.testbed->host(1).stats().Value(name);
  }
  for (const char* name : kRxHostCounters) {
    c[std::string("rx_host.") + name] = sim.testbed->host(1).stats().Value(name);
  }
  for (const char* name : kCacheNames) {
    c[std::string("cache.") + name + ".lookups"] = 0;
  }
  c["cache.removed"] = 0;
  for (std::uint32_t h = 0; h < 2; ++h) {
    const Iommu* iommu = sim.testbed->host(h).iommu();
    if (iommu == nullptr) {
      continue;
    }
    for (int i = 0; i < 4; ++i) {
      const SetAssocCache& cache = CacheOf(*iommu, i);
      c[std::string("cache.") + kCacheNames[i] + ".lookups"] += cache.hits() + cache.misses();
      c["cache.removed"] += cache.invalidations();
    }
  }
  c["simcore.events"] = sim.testbed->ev().executed();
  c["apps.completed"] = AppsCompleted(sim);
  return c;
}

std::uint64_t StaleUses(Sim& sim) {
  std::uint64_t n = 0;
  for (std::uint32_t h = 0; h < 2; ++h) {
    const StatsRegistry& stats = sim.testbed->host(h).stats();
    n += stats.Value("iommu.stale_iotlb_use") + stats.Value("iommu.stale_ptcache_use");
  }
  return n;
}

Counts Delta(const Counts& before, const Counts& after) {
  Counts d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    d[name] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

// ---------------------------------------------------------------------------
// Calibration: host ns per call of each layer's public functions. Keys end
// in _ns; "self" keys exclude the calls' children.

// EventQueue::ScheduleAt + RunUntil dispatch, with the workload's pending
// population and near-future delays. The closure carries a packet-sized
// payload like the simulator's hot events.
struct Hop {
  EventQueue* q;
  std::uint64_t* state;
  std::uint64_t* left;
  std::array<std::uint64_t, 8> payload;
  void operator()() const {
    if (*left == 0) {
      return;
    }
    --*left;
    std::uint64_t& x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q->ScheduleAfter(static_cast<TimeNs>(x % 4096), *this);
  }
};

void CalibrateEvents(std::size_t population, Values* c) {
  EventQueue q;
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  std::uint64_t left = 3'000'000;
  for (std::size_t i = 0; i < population; ++i) {
    q.ScheduleAt(static_cast<TimeNs>(i % 4096), Hop{&q, &state, &left, {}});
  }
  const auto t0 = Clock::now();
  q.RunUntil(kTimeNsMax);
  (*c)["event_ns"] = NsPer(Seconds(Clock::now() - t0), static_cast<double>(q.executed()));
}

// MemorySystem::Write / Read / ReadWalkSequence in the TLP-commit pattern.
void CalibrateMemory(const MemoryConfig& config, Values* c, std::uint64_t* sink) {
  StatsRegistry stats;
  MemorySystem mem(config, &stats);
  TimeNs t = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    *sink += mem.Write(t, 256);
    if (i % 8 == 7) {
      *sink += mem.Read(t, 256);
    }
    if (i % 64 == 63) {
      *sink += mem.ReadWalkSequence(t, 2, 90, 8);
    }
    t += 16;
  }
  (*c)["mem_access_ns"] =
      NsPer(Seconds(Clock::now() - t0), static_cast<double>(stats.Value("mem.accesses")));
}

// RootComplex::DmaWrite / DmaRead with a null IOMMU, at the workload's TLPs
// per DMA call and read share. Self time excludes the memory accesses it
// makes.
void CalibratePcie(const HostConfig& host, std::uint32_t tlps_per_dma, double read_share,
                   Values* c) {
  StatsRegistry stats;
  MemorySystem mem(host.memory, &stats);
  RootComplex rc(host.pcie, nullptr, &mem, &stats);
  std::vector<DmaSegment> seg(1);
  seg[0].len = tlps_per_dma * host.pcie.max_payload_bytes;
  TimeNs t = 0;
  double reads_due = 0.0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < 3'200'000 / tlps_per_dma; ++i) {
    seg[0].iova = (i % 4096) * kPageSize;
    reads_due += read_share;
    DmaTiming d;
    if (reads_due >= 1.0) {
      reads_due -= 1.0;
      d = rc.DmaRead(t, seg);
    } else {
      d = rc.DmaWrite(t, seg);
    }
    t = d.link_done;
  }
  const double s = Seconds(Clock::now() - t0);
  const double tlps =
      static_cast<double>(stats.Value("pcie.write_tlps") + stats.Value("pcie.read_tlps"));
  const double accesses = static_cast<double>(stats.Value("mem.accesses"));
  (*c)["tlp_ns"] = NsPer(s, tlps);
  (*c)["tlp_self_ns"] = NsPer(s - accesses * (*c)["mem_access_ns"] * 1e-9, tlps);
}

// Cost model a + b * n fitted through the costs of a 1-item and an n-item call.
void FitLinear(double cost1, double cost_n, double n, double* a, double* b) {
  *b = n > 1 ? (cost_n - cost1) / (n - 1) : 0.0;
  *a = cost1 - *b;
}

struct PtIovaCost {
  double alloc_ns = 0, free_ns = 0, map_ns = 0, walk_ns = 0, unmap_ns = 0;
};

// IovaAllocator::Alloc / Free and IoPageTable::Map / Walk / Unmap, fed the
// IOVAs the allocator hands out for `run_pages`-page requests (1 under
// strict, a descriptor in the contiguous modes), freed across cores the way
// the driver frees them.
PtIovaCost CalibratePageTableAndIova(const HostConfig& host, std::uint64_t run_pages,
                                     std::uint64_t* sink) {
  StatsRegistry stats;
  IovaAllocator iova(host.iova, &stats);
  IoPageTable pt;
  const std::uint32_t cores = host.iova.num_cores;
  SplitMix rng(7);
  double alloc_s = 0, free_s = 0, map_s = 0, unmap_s = 0, walk_s = 0;
  constexpr std::size_t kRuns = 512;
  constexpr int kRounds = 64;
  std::vector<Iova> bases(kRuns);
  std::vector<std::uint32_t> owner(kRuns);
  std::vector<std::uint32_t> target(kRuns);
  for (int round = 0; round < kRounds; ++round) {
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kRuns; ++i) {
      owner[i] = static_cast<std::uint32_t>(i % cores);
      bases[i] = iova.Alloc(owner[i], run_pages);
    }
    alloc_s += Seconds(Clock::now() - t0);
    t0 = Clock::now();
    for (Iova base : bases) {
      for (std::uint64_t p = 0; p < run_pages; ++p) {
        *sink += pt.Map(base + p * kPageSize, (p + 1) * kPageSize) ? 1 : 0;
      }
    }
    map_s += Seconds(Clock::now() - t0);
    t0 = Clock::now();
    for (Iova base : bases) {
      for (std::uint64_t p = 0; p < run_pages; ++p) {
        *sink += pt.Walk(base + p * kPageSize).phys;
      }
    }
    walk_s += Seconds(Clock::now() - t0);
    t0 = Clock::now();
    for (Iova base : bases) {
      *sink += pt.Unmap(base, run_pages * kPageSize).unmapped_pages;
    }
    unmap_s += Seconds(Clock::now() - t0);
    // DmaApi frees onto another core's cache 15% of the time.
    for (std::size_t i = 0; i < kRuns; ++i) {
      target[i] = rng.Below(100) < 15 ? static_cast<std::uint32_t>(rng.Below(cores)) : owner[i];
    }
    t0 = Clock::now();
    for (std::size_t i = 0; i < kRuns; ++i) {
      iova.Free(target[i], bases[i], run_pages);
    }
    free_s += Seconds(Clock::now() - t0);
  }
  const double runs = static_cast<double>(kRuns) * kRounds;
  const double pages = runs * static_cast<double>(run_pages);
  return PtIovaCost{NsPer(alloc_s, runs), NsPer(free_s, runs), NsPer(map_s, pages),
                    NsPer(walk_s, pages), NsPer(unmap_s, runs)};
}

// SetAssocCache::Lookup / Insert / InvalidateRange on copies of the IOMMU's
// caches, replaying the tags a page walk uses for `pages` (the pages the
// driver stack has posted), so hit rates and entry positions match the
// mode's address pattern. IOTLB lookups are not priced (they stay in iommu
// self time), and only the IOTLB sees multi-page ranges. Invalidations are
// timed in batches of 64 calls so the clock reads stay outside the calls.
void CalibrateCaches(const Iommu& iommu, const std::vector<Iova>& pages, Values* c,
                     std::uint64_t* sink) {
  constexpr int kPasses = 8;
  const double calls = kPasses * static_cast<double>(pages.size());
  for (int i = 0; i < 4; ++i) {
    const std::string name = std::string("cache_") + kCacheNames[i];
    SetAssocCache cache = CacheOf(iommu, i);
    auto t0 = Clock::now();
    if (i > 0) {
      for (int r = 0; r < kPasses; ++r) {
        for (Iova p : pages) {
          *sink += cache.Lookup(TagOf(i, p)).value_or(0);
        }
      }
      (*c)[name + "_lookup_ns"] = NsPer(Seconds(Clock::now() - t0), calls);
    }
    t0 = Clock::now();
    for (int r = 0; r < kPasses; ++r) {
      for (Iova p : pages) {
        *sink += cache.Insert(TagOf(i, p), p).value_or(0);
      }
    }
    (*c)[name + "_insert_ns"] = NsPer(Seconds(Clock::now() - t0), calls);
    const std::vector<std::uint64_t> widths =
        i == 0 ? std::vector<std::uint64_t>{1, 64} : std::vector<std::uint64_t>{1};
    for (const std::uint64_t width : widths) {
      double s = 0;
      double n = 0;
      for (std::size_t base = 0; base + 64 <= pages.size(); base += 64) {
        for (std::size_t k = 0; k < 64; ++k) {
          cache.Insert(TagOf(i, pages[base + k]), 1);
        }
        t0 = Clock::now();
        for (std::size_t k = 0; k < 64; ++k) {
          const std::uint64_t tag = TagOf(i, pages[base + k]);
          *sink += cache.InvalidateRange(tag, tag + width - 1);
        }
        s += Seconds(Clock::now() - t0);
        n += 64;
      }
      (*c)[name + (width == 1 ? "_inv1_ns" : "_inv64_ns")] = NsPer(s, n);
    }
  }
}

// Frames handed to the driver stack: a LIFO free list of 4 KB frames.
class FramePool {
 public:
  std::vector<PhysAddr> Take(std::size_t n) {
    std::vector<PhysAddr> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (free_.empty()) {
        out.push_back((next_++) * kPageSize);
      } else {
        out.push_back(free_.back());
        free_.pop_back();
      }
    }
    return out;
  }
  void Give(const std::vector<DmaMapping>& mappings) {
    for (const DmaMapping& m : mappings) {
      free_.push_back(m.phys);
    }
  }

 private:
  std::vector<PhysAddr> free_;
  std::uint64_t next_ = 1 << 20;
};

// The mode's driver stack as a Host builds it. Each round takes a posted Rx
// descriptor, runs Iommu::Translate for every TLP of its pages, then
// DmaApi::UnmapDescriptor and DmaApi::MapPages for a fresh one; contiguous
// modes also map, translate and unmap `tx_per_desc` single Tx pages, the
// workload's ratio. Every other round times Iommu::InvalidateRange alone
// over 1-page or descriptor-sized ranges instead of the descriptor's
// UnmapDescriptor. Self costs subtract the children
// (caches, memory, page table, IOVA allocator) at their calibrated cost,
// with the child call counts of this loop.
void CalibrateStack(const HostConfig& host, std::uint32_t tlp_bytes, std::uint64_t tx_per_desc,
                    Values* out, std::uint64_t* sink) {
  Values& c = *out;
  StatsRegistry stats;
  MemorySystem mem(host.memory, &stats);
  IoPageTable pt;
  Iommu iommu(host.iommu, &mem, &pt, &stats);
  IovaAllocator iova(host.iova, &stats);
  DmaApi dma(host.dma, &iova, &pt, &iommu, &stats);
  FramePool frames;
  const std::uint32_t cores = host.cores;
  const std::size_t desc_pages = host.pages_per_desc;
  const bool contiguous = UsesContiguousIovas(host.mode);
  const bool leaf_only = PreservesPtCaches(host.mode);
  constexpr std::size_t kDescsPerCore = 4;
  std::vector<std::deque<std::vector<DmaMapping>>> rings(cores);
  for (std::uint32_t core = 0; core < cores; ++core) {
    for (std::size_t d = 0; d < kDescsPerCore; ++d) {
      rings[core].push_back(dma.MapPages(core, frames.Take(desc_pages)).mappings);
    }
  }
  const auto value = [&stats](const char* name) { return static_cast<double>(stats.Value(name)); };
  const auto lookups = [&iommu](int i) {
    const SetAssocCache& cache = CacheOf(iommu, i);
    return static_cast<double>(cache.hits() + cache.misses());
  };

  TimeNs t = 0;
  double tr_s = 0, map_s = 0, unmap_s = 0;
  double runs = 0, invs = 0, frees = 0, unmapped_pages = 0;
  std::array<double, 2> inv_s{};      // [0]: 1-page ranges, [1]: whole descriptors
  std::array<double, 2> inv_calls{};
  const double translations0 = value("iommu.translations");
  const double walks0 = value("iommu.iotlb_miss") - value("iommu.faults");
  const double accesses0 = value("mem.accesses");
  std::array<double, 4> lookups0{};
  for (int i = 0; i < 4; ++i) {
    lookups0[i] = lookups(i);
  }
  const double map_ops0 = value("dma.map_ops");
  const double allocs0 = value("iova.cache_hits") + value("iova.cache_misses");
  // Every phase is timed as one block (a descriptor, or a round's Tx
  // pages), so clock reads add little to calls of a few ns.
  const auto translate = [&](const std::vector<DmaMapping>& mappings, std::uint32_t bytes) {
    const auto t0 = Clock::now();
    for (const DmaMapping& m : mappings) {
      for (std::uint32_t off = 0; off < bytes; off += tlp_bytes) {
        *sink += iommu.Translate(m.iova + off, t).done;
        t += 16;
      }
    }
    tr_s += Seconds(Clock::now() - t0);
  };
  // Timed DmaApi::UnmapDescriptor calls, with their child call counts.
  const auto unmap = [&](std::uint32_t core, const std::vector<std::vector<DmaMapping>>& descs) {
    const double runs0 = value("dma.unmap_ops");
    const double invs0 = value("iommu.inv_requests");
    const double live0 = static_cast<double>(iova.live_allocations());
    const auto t0 = Clock::now();
    for (const auto& desc : descs) {
      t = std::max(t, dma.UnmapDescriptor(core, desc, t).hw_done);
    }
    unmap_s += Seconds(Clock::now() - t0);
    runs += value("dma.unmap_ops") - runs0;
    invs += value("iommu.inv_requests") - invs0;
    frees += live0 - static_cast<double>(iova.live_allocations());
    for (const auto& desc : descs) {
      unmapped_pages += static_cast<double>(desc.size());
      frames.Give(desc);
    }
  };
  // Iommu::InvalidateRange on its own, over one page at a time or, where
  // IOVAs are contiguous, the whole descriptor; then an untimed unmap.
  const auto invalidate = [&](std::uint32_t core, const std::vector<DmaMapping>& desc, int kind) {
    const auto t0 = Clock::now();
    if (kind == 1) {
      *sink += iommu.InvalidateRange(desc.front().iova, desc.size() * kPageSize, leaf_only, t);
      inv_calls[1] += 1;
    } else {
      for (const DmaMapping& m : desc) {
        *sink += iommu.InvalidateRange(m.iova, kPageSize, leaf_only, t);
      }
      inv_calls[0] += static_cast<double>(desc.size());
    }
    inv_s[kind] += Seconds(Clock::now() - t0);
    t = std::max(t, dma.UnmapDescriptor(core, desc, t).hw_done);
    frames.Give(desc);
  };
  // Rounds alternate the timed unmap with the bare invalidations, so both
  // see the same cache state and the same machine speed.
  for (int round = 0; round < 800; ++round) {
    const std::uint32_t core = static_cast<std::uint32_t>(round % cores);
    std::vector<std::vector<DmaMapping>> done;
    done.push_back(std::move(rings[core].front()));
    rings[core].pop_front();
    translate(done.front(), static_cast<std::uint32_t>(kPageSize));
    if (round % 2 == 0) {
      unmap(core, done);
    } else {
      invalidate(core, done.front(), contiguous && round % 4 == 3 ? 1 : 0);
    }
    std::vector<PhysAddr> fresh = frames.Take(desc_pages);
    auto t0 = Clock::now();
    DmaApi::MapResult mapped = dma.MapPages(core, fresh);
    map_s += Seconds(Clock::now() - t0);
    rings[core].push_back(std::move(mapped.mappings));
    if (!contiguous || tx_per_desc == 0) {
      continue;
    }
    const std::vector<PhysAddr> tx_frames = frames.Take(tx_per_desc);
    std::vector<std::vector<DmaMapping>> tx;
    tx.reserve(tx_frames.size());
    t0 = Clock::now();
    for (PhysAddr frame : tx_frames) {
      tx.push_back(dma.MapPage(core, frame).mappings);
    }
    map_s += Seconds(Clock::now() - t0);
    std::vector<DmaMapping> tx_pages;
    for (const auto& m : tx) {
      tx_pages.push_back(m.front());
    }
    translate(tx_pages, tlp_bytes);
    unmap(core, tx);
  }
  const double tr_calls = value("iommu.translations") - translations0;
  const double walks = value("iommu.iotlb_miss") - value("iommu.faults") - walks0;
  const double walk_accesses = value("mem.accesses") - accesses0;
  std::array<double, 4> tr_lookups{};
  for (int i = 0; i < 4; ++i) {
    tr_lookups[i] = lookups(i) - lookups0[i];
  }
  const double map_pages = value("dma.map_ops") - map_ops0;
  const double allocs = value("iova.cache_hits") + value("iova.cache_misses") - allocs0;

  std::vector<Iova> pages;
  for (const auto& ring : rings) {
    for (const auto& desc : ring) {
      for (const DmaMapping& m : desc) {
        pages.push_back(m.iova);
      }
    }
  }
  CalibrateCaches(iommu, pages, &c, sink);

  // Cost models of the range-dependent calls: a per call + b per page. Runs
  // are single pages unless IOVAs are contiguous, so then b is 0.
  double cache_a = c["cache_iotlb_inv1_ns"], cache_b = 0;
  const double inv1 = NsPer(inv_s[0], inv_calls[0]);
  double inv_a = inv1, inv_b = 0;
  if (contiguous) {
    FitLinear(c["cache_iotlb_inv1_ns"], c["cache_iotlb_inv64_ns"], 64, &cache_a, &cache_b);
    FitLinear(inv1, NsPer(inv_s[1], inv_calls[1]), static_cast<double>(desc_pages), &inv_a,
              &inv_b);
  }
  c["cache_iotlb_inv_a_ns"] = cache_a;
  c["cache_iotlb_inv_b_ns"] = cache_b;
  c["invalidate_a_ns"] = inv_a;
  c["invalidate_b_ns"] = inv_b;
  // Children of one invalidation request: the IOTLB's 4 KB range and its
  // one-tag 2 MB range, plus one-tag PTcache ranges when not leaf-only.
  const double ptcache_inv =
      leaf_only ? 0.0 : c["cache_l1_inv1_ns"] + c["cache_l2_inv1_ns"] + c["cache_l3_inv1_ns"];
  c["invalidate_a_self_ns"] = inv_a - cache_a - c["cache_iotlb_inv1_ns"] - ptcache_inv;
  c["invalidate_b_self_ns"] = inv_b - cache_b;

  // Translate's children: PTcache lookups, every walk's inserts, the walk's
  // memory reads and its page-table walk. IOTLB probes, nearly all through
  // the repeat memo, stay in the IOMMU's self time.
  const double ns = 1e-9;
  double tr_children = walk_accesses * c["mem_access_ns"] + walks * c["pt_walk_ns"];
  for (int i = 0; i < 4; ++i) {
    const std::string name = std::string("cache_") + kCacheNames[i];
    tr_children += walks * c[name + "_insert_ns"];
    if (i > 0) {
      tr_children += tr_lookups[i] * c[name + "_lookup_ns"];
    }
  }
  c["translate_ns"] = NsPer(tr_s, tr_calls);
  c["translate_self_ns"] = NsPer(tr_s - tr_children * ns, tr_calls);
  c["driver_map_ns"] = NsPer(map_s, map_pages);
  c["driver_map_self_ns"] =
      NsPer(map_s - (allocs * c["iova_alloc_ns"] + map_pages * c["pt_map_ns"]) * ns, map_pages);
  const double unmap_children = runs * c["pt_unmap_a_ns"] + unmapped_pages * c["pt_unmap_b_ns"] +
                                invs * inv_a + unmapped_pages * inv_b +
                                frees * c["iova_free_ns"];
  c["driver_unmap_ns"] = NsPer(unmap_s, runs);
  c["driver_unmap_self_ns"] = NsPer(unmap_s - unmap_children * ns, runs);
}

// Per-layer host self time over the span: the workload's call counts times
// the calibrated self cost per call. Also the layers' ns per call. `c` is a
// copy, so costs a mode never calibrates (no IOMMU) read as 0 here only.
Values Attribute(const Workload& w, const Counts& span, Values c) {
  const auto get = [&span](const std::string& name) {
    const auto it = span.find(name);
    return it == span.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double ns = 1e-9;
  Values a;
  a["simcore.ns_per_event"] = c["event_ns"];
  a["simcore.self_s"] = get("simcore.events") * c["event_ns"] * ns;
  a["mem.ns_per_access"] = c["mem_access_ns"];
  a["mem.self_s"] = get("mem.accesses") * c["mem_access_ns"] * ns;
  const double tlps = get("pcie.write_tlps") + get("pcie.read_tlps");
  a["pcie.ns_per_tlp"] = c["tlp_ns"];
  a["pcie.self_s"] = tlps * c["tlp_self_ns"] * ns;

  const double translations = get("iommu.translations");
  const double invs = get("iommu.inv_requests");
  const double walks = get("iommu.iotlb_miss") - get("iommu.faults");
  const double maps = get("dma.map_ops");
  const double runs = get("dma.unmap_ops");
  const double pages = maps;  // every mapped page is unmapped once
  // Requests that also invalidate the PTcaches: all of them unless the mode
  // preserves the PTcaches, which it drops only after a table-page reclaim.
  const double full = UsesIommu(w.mode) && !PreservesPtCaches(w.mode)
                          ? invs
                          : std::min(invs, get("dma.reclaim_invalidations"));
  a["cache.invalidate_calls"] = 2 * invs + 3 * full;
  const double cache_inv_s =
      (invs * (c["cache_iotlb_inv_a_ns"] + c["cache_iotlb_inv1_ns"]) +
       pages * c["cache_iotlb_inv_b_ns"] +
       full * (c["cache_l1_inv1_ns"] + c["cache_l2_inv1_ns"] + c["cache_l3_inv1_ns"])) *
      ns;
  double cache_s = cache_inv_s;
  for (int i = 0; i < 4; ++i) {
    const std::string name = std::string("cache_") + kCacheNames[i];
    cache_s += walks * c[name + "_insert_ns"] * ns;
    if (i > 0) {
      cache_s += get("cache." + std::string(kCacheNames[i]) + ".lookups") *
                 c[name + "_lookup_ns"] * ns;
    }
  }
  const double inv_calls = a["cache.invalidate_calls"];
  a["cache.ns_per_invalidate_range"] = inv_calls > 0 ? cache_inv_s / ns / inv_calls : 0.0;
  a["cache.self_s"] = cache_s;

  a["iommu.ns_per_translate"] = c["translate_ns"];
  a["iommu.ns_per_invalidate"] =
      invs > 0 ? c["invalidate_a_ns"] + c["invalidate_b_ns"] * pages / invs : 0.0;
  a["iommu.self_s"] = (translations * c["translate_self_ns"] +
                       invs * c["invalidate_a_self_ns"] + pages * c["invalidate_b_self_ns"]) *
                      ns;
  a["pagetable.ns_per_map"] = c["pt_map_ns"];
  a["pagetable.self_s"] = (maps * c["pt_map_ns"] + walks * c["pt_walk_ns"] +
                           runs * c["pt_unmap_a_ns"] + pages * c["pt_unmap_b_ns"]) *
                          ns;
  const double allocs = get("iova.cache_hits") + get("iova.cache_misses");
  a["iova.ns_per_alloc"] = c["iova_alloc_ns"];
  a["iova.self_s"] = allocs * (c["iova_alloc_ns"] + c["iova_free_ns"]) * ns;
  a["driver.ns_per_unmap"] = c["driver_unmap_ns"];
  a["driver.self_s"] = (maps * c["driver_map_self_ns"] + runs * c["driver_unmap_self_ns"]) * ns;
  return a;
}

Values Calibrate(const Workload& w, const Sim& sim, const Counts& span, std::uint64_t* sink) {
  Values c;
  // The host config as Host derives it from the testbed config.
  const Testbed& tb = *sim.testbed;
  HostConfig host = tb.config().host;
  host.cores = w.cores;
  host.mode = w.mode;
  host.dma.mode = w.mode;
  host.dma.pages_per_chunk = host.pages_per_desc;
  host.dma.num_cores = w.cores;
  host.iova.num_cores = w.cores;

  const auto get = [&span](const char* name) {
    const auto it = span.find(name);
    return it == span.end() ? 0.0 : static_cast<double>(it->second);
  };
  CalibrateEvents(std::max<std::size_t>(64, sim.testbed->ev().pending()), &c);
  CalibrateMemory(host.memory, &c, sink);
  // Each received packet is one DmaWrite; each sent packet and descriptor
  // fetch one DmaRead.
  const double tlps = get("pcie.write_tlps") + get("pcie.read_tlps");
  const double dmas = get("nic.rx_packets") + get("nic.tx_packets") + get("nic.desc_fetches");
  const double per_dma = dmas > 0 ? tlps / dmas + 0.5 : 1.0;
  CalibratePcie(host, static_cast<std::uint32_t>(std::clamp(per_dma, 1.0, 64.0)),
                tlps > 0 ? get("pcie.read_tlps") / tlps : 0.0, &c);
  if (!UsesIommu(w.mode)) {
    return c;  // no IOMMU, cache, page-table, IOVA or driver calls to price
  }
  const bool contiguous = UsesContiguousIovas(w.mode);
  const PtIovaCost single = CalibratePageTableAndIova(host, 1, sink);
  const PtIovaCost desc = CalibratePageTableAndIova(host, host.pages_per_desc, sink);
  const PtIovaCost& pattern = contiguous ? desc : single;
  c["iova_alloc_ns"] = pattern.alloc_ns;
  c["iova_free_ns"] = pattern.free_ns;
  c["pt_map_ns"] = pattern.map_ns;
  c["pt_walk_ns"] = pattern.walk_ns;
  FitLinear(single.unmap_ns, desc.unmap_ns, static_cast<double>(host.pages_per_desc),
            &c["pt_unmap_a_ns"], &c["pt_unmap_b_ns"]);
  // Single-page Tx runs per descriptor-sized Rx run, from the span's counts:
  // rx runs unmap a whole descriptor, Tx runs one page.
  const double maps = get("dma.map_ops");
  const double runs = get("dma.unmap_ops");
  const double n = static_cast<double>(host.pages_per_desc);
  const double rx_runs = contiguous ? std::max(0.0, (maps - runs) / (n - 1)) : 0.0;
  const double tx_per_desc = rx_runs > 0 ? std::min(256.0, (runs - rx_runs) / rx_runs) : 0.0;
  CalibrateStack(host, host.pcie.max_payload_bytes,
                 static_cast<std::uint64_t>(tx_per_desc + 0.5), &c, sink);
  return c;
}

// ---------------------------------------------------------------------------
// Output.

template <typename Map>
void PrintMap(std::ostream& os, const Map& values) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    os << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  os << "}";
}

template <typename T>
void PrintList(std::ostream& os, const std::vector<T>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? "," : "") << values[i];
  }
  os << "]";
}

int Usage(const std::string& msg) {
  std::cerr << "sim_bench: " << msg << "\n"
            << "usage: sim_bench --workload NAME --seed N [--trace 0|1] "
               "[--warmup-ms W --span-ms S --slices N]\n";
  return 2;
}

bool ParsePositive(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && *out > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool trace = false;
  double warmup_ms = 0, span_ms = 0, slices_arg = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value for " + flag);
    }
    const char* arg = argv[++i];
    if (flag == "--workload") {
      for (const Workload& candidate : kWorkloads) {
        if (std::strcmp(candidate.name, arg) == 0) {
          w = &candidate;
        }
      }
      if (w == nullptr) {
        return Usage(std::string("unknown workload ") + arg);
      }
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(arg, &end, 10);
      if (end == arg || *end != '\0' || arg[0] == '-') {
        return Usage("--seed takes a non-negative integer");
      }
      have_seed = true;
    } else if (flag == "--trace") {
      if (std::strcmp(arg, "0") != 0 && std::strcmp(arg, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      trace = arg[0] == '1';
    } else if (flag == "--warmup-ms" || flag == "--span-ms" || flag == "--slices") {
      double* dst = flag == "--warmup-ms" ? &warmup_ms : flag == "--span-ms" ? &span_ms : &slices_arg;
      if (!ParsePositive(arg, dst)) {
        return Usage(flag + " takes a positive number");
      }
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (w == nullptr || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  const TimeNs warmup_ns = MsToNs(warmup_ms > 0 ? warmup_ms : w->warmup_ms);
  const TimeNs span_ns = MsToNs(span_ms > 0 ? span_ms : w->span_ms);
  const auto slices = static_cast<std::uint32_t>(slices_arg > 0 ? slices_arg : w->slices);
  if (span_ns < slices) {
    return Usage("span shorter than one ns per slice");
  }

  // Set-up: Testbed construction through the end of the simulated warm-up.
  Sim sim;
  const auto setup0 = Clock::now();
  sim.testbed = std::make_unique<Testbed>(MakeConfig(*w));
  const double construct_s = Seconds(Clock::now() - setup0);
  Attach(*w, seed, warmup_ns, &sim);
  sim.testbed->RunUntil(warmup_ns);
  const double setup_s = Seconds(Clock::now() - setup0);

  // Measured span: fixed simulated slices, each timed on the host clock. The
  // strict safety property is checked at every slice boundary.
  const Counts check0 = CheckCounts(sim);
  const Counts layer0 = LayerCounts(sim);
  std::uint64_t stale = StaleUses(sim);
  std::uint32_t stale_slices = 0;
  std::vector<double> slice_ms(slices);
  Counts traced_sum;
  Counts prev = layer0;
  double span_s = 0.0;
  for (std::uint32_t k = 0; k < slices; ++k) {
    const TimeNs until = warmup_ns + span_ns * (k + 1) / slices;
    const auto t0 = Clock::now();
    sim.testbed->cluster().RunUntil(until);
    const double s = Seconds(Clock::now() - t0);
    span_s += s;
    slice_ms[k] = s * 1e3;
    const std::uint64_t now_stale = StaleUses(sim);
    if (now_stale != stale) {
      ++stale_slices;
      stale = now_stale;
    }
    if (trace) {
      // Counts at every slice boundary (the benchmark's own spans); their
      // sum must equal the span's delta.
      Counts now = LayerCounts(sim);
      for (const auto& [name, value] : Delta(prev, now)) {
        traced_sum[name] += value;
      }
      prev = std::move(now);
    }
  }
  const Counts check = Delta(check0, CheckCounts(sim));
  const Counts layer = Delta(layer0, LayerCounts(sim));
  const double peak_rss = PeakRssMiB();
  const bool traced_sum_ok = !trace || traced_sum == layer;

  Values calib;
  Values attrib;
  std::uint64_t sink = 0;
  if (trace) {
    // Each cost is the fastest of several calibrations, as the span's host
    // time is each slice's fastest repetition: both are the undisturbed
    // machine's figure.
    for (int round = 0; round < 5; ++round) {
      for (const auto& [name, ns] : Calibrate(*w, sim, layer, &sink)) {
        const auto [it, fresh] = calib.emplace(name, ns);
        if (!fresh) {
          it->second = std::min(it->second, ns);
        }
      }
    }
    attrib = Attribute(*w, layer, calib);
  }

  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"workload\":\"" << w->name << "\",\"seed\":" << seed << ",\"mode\":\""
     << ProtectionModeName(w->mode) << "\",\"cores\":" << w->cores
     << ",\"mtu_bytes\":" << w->mtu_bytes << ",\"ring_size_pkts\":" << w->ring_size_pkts
     << ",\"iperf_flows\":" << w->iperf_flows << ",\"redis_clients\":" << w->redis_clients
     << ",\"redis_value_bytes\":";
  PrintList(os, sim.value_bytes);
  os << ",\"start_offsets_ns\":";
  PrintList(os, sim.start_offsets_ns);
  os << ",\"warmup_ms\":" << static_cast<double>(warmup_ns) / kNsPerMs
     << ",\"span_ms\":" << static_cast<double>(span_ns) / kNsPerMs << ",\"slices\":" << slices
     << ",\"build_type\":\"" << FSIO_PERFBENCH_BUILD_TYPE << "\",\"compiler\":\""
     << FSIO_PERFBENCH_COMPILER << "\",\"construct_s\":" << construct_s
     << ",\"setup_s\":" << setup_s << ",\"span_s\":" << span_s << ",\"peak_rss_mb\":" << peak_rss
     << ",\"stale_slices\":" << stale_slices << ",\"traced\":" << (trace ? "true" : "false")
     << ",\"traced_sum_ok\":" << (traced_sum_ok ? "true" : "false") << ",\"sink\":" << sink % 2
     << ",\"check\":";
  PrintMap(os, check);
  os << ",\"layer\":";
  PrintMap(os, layer);
  os << ",\"calib\":";
  PrintMap(os, calib);
  os << ",\"attrib\":";
  PrintMap(os, attrib);
  os << ",\"slice_ms\":";
  PrintList(os, slice_ms);
  os << "}\n";
  std::cout << os.str();
  return 0;
}

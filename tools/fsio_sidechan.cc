// IOTLB eviction-timing side channel probe (IOTLB-SC), and its defense.
//
// Two protection domains share one IOMMU. The attacker primes the IOTLB
// with its own translations, the victim either performs DMA translations or
// stays idle (one secret bit per trial), and the attacker then re-probes
// its working set and counts IOTLB misses — the classic prime+probe
// eviction channel, observable from a device because shared-IOTLB misses
// cost extra page-table walks (time).
//
// The tool estimates the channel capacity empirically: over N trials with a
// pseudorandom secret bit, it binarizes the probe's miss count and reports
// the mutual information I(secret; observation) in bits/trial.
//
//   * iotlb_partition=none       — victim activity evicts attacker lines:
//                                  the observation tracks the secret and
//                                  leakage approaches 1 bit/trial.
//   * iotlb_partition=per_domain — insertion victims are confined to the
//                                  inserting domain's way partition, so the
//                                  attacker's residency is independent of
//                                  the victim: leakage collapses to ~0.
//
// Exit code 0 always (reporting tool); use --expect-defense to fail (exit 1)
// unless the unpartitioned channel leaks and the partitioned one does not —
// the CI assertion mode.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/cli/flags.h"
#include "src/iommu/iommu.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"
#include "src/tenant/domain.h"

namespace fsio {
namespace {

struct Options {
  std::uint64_t trials = 256;
  std::uint32_t victim_pages = 32;
  std::uint64_t seed = 1;
  std::string partition = "both";  // "none" | "per_domain" | "both"
  bool expect_defense = false;
};

struct ChannelResult {
  double leakage_bits = 0.0;
  double avg_miss_active = 0.0;
  double avg_miss_idle = 0.0;
  std::uint64_t trials = 0;
};

// Mutual information of the binary (secret, observation) channel from joint
// counts, in bits.
double BinaryMutualInformation(const std::uint64_t joint[2][2]) {
  double total = 0.0;
  for (int s = 0; s < 2; ++s) {
    for (int o = 0; o < 2; ++o) {
      total += static_cast<double>(joint[s][o]);
    }
  }
  if (total == 0.0) {
    return 0.0;
  }
  double mi = 0.0;
  for (int s = 0; s < 2; ++s) {
    for (int o = 0; o < 2; ++o) {
      const double pso = static_cast<double>(joint[s][o]) / total;
      if (pso == 0.0) {
        continue;
      }
      const double ps =
          static_cast<double>(joint[s][0] + joint[s][1]) / total;
      const double po =
          static_cast<double>(joint[0][o] + joint[1][o]) / total;
      mi += pso * std::log2(pso / (ps * po));
    }
  }
  return mi < 0.0 ? 0.0 : mi;
}

ChannelResult RunChannel(const Options& opt, bool partitioned) {
  StatsRegistry stats;
  MemorySystem mem(MemoryConfig{}, &stats);
  IoPageTable host_pt;
  IommuConfig config;
  if (partitioned) {
    config.iotlb_partitions = 2;
  }
  Iommu iommu(config, &mem, &host_pt, &stats);

  IoPageTable attacker_pt;
  IoPageTable victim_pt;
  const DomainId attacker = iommu.AddDomain(&attacker_pt);
  const DomainId victim = iommu.AddDomain(&victim_pt);

  // The attacker's probe set fills the IOTLB; the victim's working set is
  // disjoint IOVA space (higher pages) backed by its own page table.
  const std::uint32_t probe_pages = config.iotlb_sets * config.iotlb_ways;
  std::vector<Iova> probe;
  probe.reserve(probe_pages);
  for (std::uint32_t i = 0; i < probe_pages; ++i) {
    const Iova iova = static_cast<Iova>(i) * kPageSize;
    attacker_pt.Map(iova, static_cast<PhysAddr>(0x10000000ULL + iova));
    probe.push_back(iova);
  }
  std::vector<Iova> victim_set;
  victim_set.reserve(opt.victim_pages);
  for (std::uint32_t i = 0; i < opt.victim_pages; ++i) {
    const Iova iova = static_cast<Iova>(0x40000 + i) * kPageSize;
    victim_pt.Map(iova, static_cast<PhysAddr>(0x80000000ULL + iova));
    victim_set.push_back(iova);
  }

  TimeNs t = 0;
  // Space translations past the longest walk so pending-walk coalescing
  // never merges the probe's accesses.
  auto translate = [&](DomainId d, Iova iova) {
    t += 3000;
    return iommu.Translate(d, iova, t);
  };

  Rng rng(opt.seed ^ 0x51dec4a7ULL);
  std::vector<std::uint64_t> misses(opt.trials, 0);
  std::vector<int> secrets(opt.trials, 0);
  double sum_active = 0.0;
  double sum_idle = 0.0;
  std::uint64_t n_active = 0;
  std::uint64_t n_idle = 0;

  for (std::uint64_t trial = 0; trial < opt.trials; ++trial) {
    // Prime: bring the full probe set in.
    for (Iova iova : probe) {
      translate(attacker, iova);
    }
    // Victim step: one secret bit of activity.
    const int secret = static_cast<int>(rng.NextBelow(2));
    if (secret != 0) {
      for (Iova iova : victim_set) {
        translate(victim, iova);
      }
    }
    // Probe: count how many attacker lines were evicted.
    std::uint64_t miss = 0;
    for (Iova iova : probe) {
      if (!translate(attacker, iova).iotlb_hit) {
        ++miss;
      }
    }
    misses[trial] = miss;
    secrets[trial] = secret;
    if (secret != 0) {
      sum_active += static_cast<double>(miss);
      ++n_active;
    } else {
      sum_idle += static_cast<double>(miss);
      ++n_idle;
    }
  }

  // Binarize at the midpoint of the observed range; a flat channel (no
  // observable difference) yields zero mutual information by construction.
  std::uint64_t lo = ~0ULL;
  std::uint64_t hi = 0;
  for (std::uint64_t m : misses) {
    lo = m < lo ? m : lo;
    hi = m > hi ? m : hi;
  }
  std::uint64_t joint[2][2] = {{0, 0}, {0, 0}};
  const double threshold = (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
  for (std::uint64_t trial = 0; trial < opt.trials; ++trial) {
    const int obs = (lo != hi && static_cast<double>(misses[trial]) > threshold) ? 1 : 0;
    ++joint[secrets[trial]][obs];
  }

  ChannelResult out;
  out.trials = opt.trials;
  out.leakage_bits = BinaryMutualInformation(joint);
  out.avg_miss_active = n_active == 0 ? 0.0 : sum_active / static_cast<double>(n_active);
  out.avg_miss_idle = n_idle == 0 ? 0.0 : sum_idle / static_cast<double>(n_idle);
  return out;
}

int Main(int argc, char** argv) {
  Options opt;
  cli::Parse(argc, argv, "fsio_sidechan",
             "IOTLB eviction-timing side channel: estimates leakage in bits per\n"
             "prime+probe trial, with and without per-domain IOTLB partitioning.",
             {
                 cli::Unsigned("trials", &opt.trials, "trials per configuration", 1, 1u << 24),
                 cli::Unsigned("victim-pages", &opt.victim_pages,
                               "victim working set per active trial", 1, 1u << 20),
                 cli::Unsigned("seed", &opt.seed, "secret-bit RNG seed"),
                 cli::OneOf("partition", &opt.partition,
                            cli::Choices<std::string>{
                                {"none", "none"}, {"per_domain", "per_domain"}, {"both", "both"}},
                            "P", "IOTLB partition policy to measure"),
                 cli::Switch("expect-defense", &opt.expect_defense,
                             "exit 1 unless leakage(none) > 0.5 bits and\n"
                             "leakage(per_domain) < 0.05 bits"),
             });
  const bool run_none = opt.partition == "both" || opt.partition == "none";
  const bool run_part = opt.partition == "both" || opt.partition == "per_domain";

  std::printf("iotlb_partition,trials,avg_miss_active,avg_miss_idle,leakage_bits\n");
  ChannelResult none_result;
  ChannelResult part_result;
  if (run_none) {
    none_result = RunChannel(opt, /*partitioned=*/false);
    std::printf("none,%llu,%.2f,%.2f,%.4f\n",
                static_cast<unsigned long long>(none_result.trials),
                none_result.avg_miss_active, none_result.avg_miss_idle,
                none_result.leakage_bits);
  }
  if (run_part) {
    part_result = RunChannel(opt, /*partitioned=*/true);
    std::printf("per_domain,%llu,%.2f,%.2f,%.4f\n",
                static_cast<unsigned long long>(part_result.trials),
                part_result.avg_miss_active, part_result.avg_miss_idle,
                part_result.leakage_bits);
  }

  if (opt.expect_defense) {
    if (!run_none || !run_part) {
      std::fprintf(stderr, "fsio_sidechan: --expect-defense needs --partition both\n");
      return 2;
    }
    const bool leaks = none_result.leakage_bits > 0.5;
    const bool defended = part_result.leakage_bits < 0.05;
    if (leaks && defended) {
      std::printf("defense check PASSED: %.4f bits shared vs %.4f bits partitioned\n",
                  none_result.leakage_bits, part_result.leakage_bits);
      return 0;
    }
    std::printf("defense check FAILED: %.4f bits shared vs %.4f bits partitioned\n",
                none_result.leakage_bits, part_result.leakage_bits);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fsio

int main(int argc, char** argv) { return fsio::Main(argc, argv); }

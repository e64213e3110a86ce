// Named counter registry, modeled after PCM-style hardware counters.
//
// Components own Counter handles; a StatsRegistry groups them for snapshot /
// delta reporting so experiments can measure per-interval rates (e.g. misses
// per page of data during the measurement window only).
//
// Thread safety: Counter and StatsRegistry are thread-compatible, not
// thread-safe — plain uint64 increments, no atomics, no locks. Each registry
// belongs to one simulation instance and is only touched by the sweep-worker
// thread driving that instance (src/core/sweep_runner.h); keeping Add() a
// single non-atomic add is what lets counters sit on the per-packet hot
// path. Never share a registry across concurrently running sweep points —
// the TSan CI preset (FSIO_SANITIZE=thread) checks this invariant.
#ifndef FASTSAFE_SRC_STATS_COUNTERS_H_
#define FASTSAFE_SRC_STATS_COUNTERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fsio {

class Counter {
 public:
  Counter() = default;
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  void Reset() { value_ = 0; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// A registry of named counters. Names are hierarchical by convention
// ("iommu.iotlb_miss"). Counters are owned by the registry and stable in
// memory, so components may hold raw pointers.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // Returns the counter registered under `name`, creating it on first use.
  Counter* Get(const std::string& name);

  // Current value, zero if the counter does not exist.
  std::uint64_t Value(const std::string& name) const;

  // Snapshot of all counter values.
  std::map<std::string, std::uint64_t> Snapshot() const;

  // Per-counter difference `after - before` (counters absent from `before`
  // count from zero).
  static std::map<std::string, std::uint64_t> Delta(
      const std::map<std::string, std::uint64_t>& before,
      const std::map<std::string, std::uint64_t>& after);

  // Resets every registered counter to zero.
  void ResetAll();

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

// Returns *slot, first registering `prefix + name` in `stats` into it. Rare
// events (crashes, quiesce and fault-domain drops) count through this, so a
// run that never sees one publishes no counter for it.
inline Counter* LazyCounter(StatsRegistry* stats, Counter** slot, std::string_view name,
                            std::string_view prefix = {}) {
  if (*slot == nullptr) {
    *slot = stats->Get(std::string(prefix).append(name));
  }
  return *slot;
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_STATS_COUNTERS_H_

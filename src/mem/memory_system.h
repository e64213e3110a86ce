// Host memory model: fixed DRAM access latency plus a shared-bus bandwidth
// constraint.
//
// The IOMMU's page-table walks, the root complex's payload writes (Rx) and
// reads (Tx), and host-stack copies all contend here. Each access occupies
// the bus for bytes/bandwidth and completes base-latency after its bus grant,
// so light contention leaves latency near the DRAM floor (~90 ns) while
// saturating traffic inflates it — matching the effective lm the paper fits.
#ifndef FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_
#define FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/simcore/time.h"
#include "src/stats/counters.h"

namespace fsio {

struct MemoryConfig {
  TimeNs access_latency_ns = 90;      // row-hit DRAM access latency
  double bandwidth_gbps = 375.0;      // 46.9 GB/s ≈ 375 Gbit/s (2 channels DDR4)
  std::uint32_t parallel_banks = 8;   // independent bank groups
  bool operator==(const MemoryConfig&) const = default;
};

class MemorySystem {
 public:
  // Throws std::invalid_argument, naming the field, unless bandwidth_gbps > 0
  // and parallel_banks > 0.
  explicit MemorySystem(const MemoryConfig& config, StatsRegistry* stats);

  // Issues a read of `bytes` at time `start`; returns the completion time.
  // Reads shorter than a cacheline still transfer a full cacheline.
  TimeNs Read(TimeNs start, std::uint64_t bytes);

  // Issues a write of `bytes` at time `start`; returns the completion time.
  TimeNs Write(TimeNs start, std::uint64_t bytes);

  // Page-walk batch: `reads` dependent reads of `bytes_per_read` each, the
  // i-th issued `step_overhead_ns` after the (i-1)-th completes. One grouped
  // call replaces the walker's per-PTE Read() loop; timing, byte accounting
  // and the mem.accesses / mem.queued_ns counters are identical to issuing
  // the reads individually. Returns the completion time of the last read
  // (== `start` when `reads` is zero).
  TimeNs ReadWalkSequence(TimeNs start, int reads, TimeNs step_overhead_ns,
                          std::uint64_t bytes_per_read);

  // Posted write: consumes bank bandwidth (affecting later accesses' queueing)
  // but the caller does not wait for it. Used for pipelined payload commits.
  void Post(TimeNs start, std::uint64_t bytes);

  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  TimeNs Access(TimeNs start, std::uint64_t bytes);
  // Serves one access of `occupancy` ns issued at `issue` on the
  // earliest-free bank; returns its grant time.
  TimeNs Grant(TimeNs issue, TimeNs occupancy);
  // Bank occupancy of an access of `bytes` (already rounded up to a
  // cacheline): from the table up to a page, computed above that.
  TimeNs Occupancy(std::uint64_t bytes) const {
    return bytes < occupancy_.size() ? occupancy_[bytes] : ComputeOccupancy(bytes);
  }
  TimeNs ComputeOccupancy(std::uint64_t bytes) const;

  MemoryConfig config_;
  double per_bank_bw_;  // bytes per ns of one bank
  // Earliest time each bank is free, as a ring sorted ascending from head_.
  // Bank-level parallelism is approximated without tracking physical
  // addresses, so a bank is known only by its free time: which of several
  // equally free banks serves an access cannot change any result.
  std::vector<TimeNs> bank_free_;
  std::size_t head_ = 0;
  // occupancy_[bytes] for every access up to a page (a TLP payload or a
  // page-table read).
  std::vector<TimeNs> occupancy_;
  std::uint64_t total_bytes_ = 0;
  Counter* accesses_;
  Counter* queued_ns_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_MEM_MEMORY_SYSTEM_H_

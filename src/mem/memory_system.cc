#include "src/mem/memory_system.h"

#include <stdexcept>
#include <string>

#include "src/mem/address.h"

namespace fsio {

namespace {

MemoryConfig Validated(const MemoryConfig& config) {
  if (!(config.bandwidth_gbps > 0)) {
    throw std::invalid_argument("MemoryConfig::bandwidth_gbps must be > 0, got " +
                                std::to_string(config.bandwidth_gbps));
  }
  if (config.parallel_banks == 0) {
    throw std::invalid_argument("MemoryConfig::parallel_banks must be > 0, got " +
                                std::to_string(config.parallel_banks));
  }
  return config;
}

}  // namespace

MemorySystem::MemorySystem(const MemoryConfig& config, StatsRegistry* stats)
    : config_(Validated(config)),
      per_bank_bw_(GbpsToBytesPerNs(config.bandwidth_gbps) /
                   static_cast<double>(config.parallel_banks)),
      bank_free_(config.parallel_banks, 0),
      occupancy_(kPageSize + 1),
      accesses_(stats->Get("mem.accesses")),
      queued_ns_(stats->Get("mem.queued_ns")) {
  for (std::uint64_t bytes = 0; bytes <= kPageSize; ++bytes) {
    occupancy_[bytes] = ComputeOccupancy(bytes);
  }
}

TimeNs MemorySystem::ComputeOccupancy(std::uint64_t bytes) const {
  // Each bank serves one access at a time; occupancy is the transfer time of
  // the access's bytes at the per-bank share of total bandwidth.
  auto occupancy = static_cast<TimeNs>(static_cast<double>(bytes) / per_bank_bw_);
  return occupancy == 0 ? 1 : occupancy;
}

TimeNs MemorySystem::Grant(TimeNs issue, TimeNs occupancy) {
  // Accesses pick the earliest-free bank (an open-bank scheduler would do no
  // worse), so queueing appears only when aggregate demand approaches the
  // pin rate. The ring's head is that bank.
  const TimeNs free = bank_free_[head_];
  const TimeNs grant = free > issue ? free : issue;
  if (grant > issue) {
    queued_ns_->Add(grant - issue);
  }
  const TimeNs busy_until = grant + occupancy;
  // Popping the head leaves its slot as the ring's tail. Shift the banks
  // that free up later than `busy_until` one slot toward the tail until it
  // fits; it usually sorts last, so the loop makes one compare.
  const std::size_t n = bank_free_.size();
  std::size_t slot = head_;
  head_ = head_ + 1 == n ? 0 : head_ + 1;
  while (slot != head_) {
    const std::size_t prev = slot == 0 ? n - 1 : slot - 1;
    if (bank_free_[prev] <= busy_until) {
      break;
    }
    bank_free_[slot] = bank_free_[prev];
    slot = prev;
  }
  bank_free_[slot] = busy_until;
  return grant;
}

TimeNs MemorySystem::Access(TimeNs start, std::uint64_t bytes) {
  if (bytes < kCachelineSize) {
    bytes = kCachelineSize;
  }
  total_bytes_ += bytes;
  accesses_->Add();
  return Grant(start, Occupancy(bytes)) + config_.access_latency_ns;
}

TimeNs MemorySystem::Read(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }

TimeNs MemorySystem::ReadWalkSequence(TimeNs start, int reads, TimeNs step_overhead_ns,
                                      std::uint64_t bytes_per_read) {
  if (reads <= 0) {
    return start;
  }
  // Every read in the sequence moves the same byte count; the bank choice
  // and queueing charge stay per-read, bit-for-bit what per-PTE Read()
  // calls produce.
  std::uint64_t bytes = bytes_per_read;
  if (bytes < kCachelineSize) {
    bytes = kCachelineSize;
  }
  const TimeNs occupancy = Occupancy(bytes);
  total_bytes_ += bytes * static_cast<std::uint64_t>(reads);
  accesses_->Add(static_cast<std::uint64_t>(reads));
  TimeNs t = start;
  for (int i = 0; i < reads; ++i) {
    t = Grant(t + step_overhead_ns, occupancy) + config_.access_latency_ns;
  }
  return t;
}

TimeNs MemorySystem::Write(TimeNs start, std::uint64_t bytes) { return Access(start, bytes); }

void MemorySystem::Post(TimeNs start, std::uint64_t bytes) { Access(start, bytes); }

}  // namespace fsio

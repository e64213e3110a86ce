#include "src/faults/safety_oracle.h"

#include <algorithm>
#include <sstream>

namespace fsio {

SafetyOracle::SafetyOracle(StatsRegistry* stats) {
  if (stats != nullptr) {
    for (int k = 0; k < static_cast<int>(SafetyViolationKind::kCount); ++k) {
      counters_[k] = stats->Get(std::string("oracle.violation.") +
                                SafetyViolationKindName(static_cast<SafetyViolationKind>(k)));
    }
    overlap_counter_ = stats->Get("oracle.overlap_maps");
  }
}

void SafetyOracle::OnMap(Iova base, std::uint64_t pages) {
  const std::uint64_t first = PageNumber(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    PageState& state = pages_[first + i];
    if (state.live) {
      ++overlap_maps_;
      if (overlap_counter_ != nullptr) {
        overlap_counter_->Add();
      }
      continue;  // keep the existing epoch; the overlap is the anomaly
    }
    state.live = true;
    ++state.epoch;
    ++live_pages_;
  }
}

void SafetyOracle::OnUnmap(Iova base, std::uint64_t pages) {
  const std::uint64_t first = PageNumber(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    auto it = pages_.find(first + i);
    if (it == pages_.end() || !it->second.live) {
      continue;  // double-unmap is the driver's invariant to report
    }
    it->second.live = false;
    --live_pages_;
  }
}

void SafetyOracle::OnMapBacking(Iova base, std::uint64_t pages, PhysAddr phys) {
  const std::uint64_t first = PageNumber(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    PageState& state = pages_[first + i];
    state.phys = phys + i * kPageSize;
    state.phys_known = true;
    if (!reclaimed_frames_.empty()) {
      reclaimed_frames_.erase(PageNumber(state.phys));
    }
  }
}

void SafetyOracle::OnFramesReclaimed(PhysAddr base, std::uint64_t pages) {
  const std::uint64_t first = PageNumber(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    reclaimed_frames_.insert(first + i);
  }
}

std::uint64_t SafetyOracle::ForceUnmapAll() {
  std::uint64_t torn_down = 0;
  for (auto& [page, state] : pages_) {
    (void)page;
    if (state.live) {
      state.live = false;
      ++torn_down;
    }
  }
  live_pages_ = 0;
  return torn_down;
}

bool SafetyOracle::IsLive(Iova iova) const {
  auto it = pages_.find(PageNumber(iova));
  return it != pages_.end() && it->second.live;
}

void SafetyOracle::Record(SafetyViolationKind kind, Iova iova, TimeNs now) {
  auto it = pages_.find(PageNumber(iova));
  SafetyViolation v;
  v.time = now;
  v.iova = iova;
  v.kind = kind;
  v.epoch = (it != pages_.end() && it->second.live) ? it->second.epoch : 0;
  violations_.push_back(v);
  ++counts_[static_cast<int>(kind)];
  if (counters_[static_cast<int>(kind)] != nullptr) {
    counters_[static_cast<int>(kind)]->Add();
  }
}

void SafetyOracle::OnDeviceAccess(Iova iova, TimeNs now, const DeviceAccess& access) {
  // Classification priority: a cross-domain cache hit (isolation breach) is
  // the gravest, then a walk through reclaimed memory (hardware dereferences
  // freed pages), then a stale-but-live pointer, then plain use-after-unmap
  // of an IOVA the driver gave up.
  if (access.cross_domain) {
    Record(SafetyViolationKind::kCrossDomainHit, iova, now);
    return;
  }
  if (access.stale_ptcache_reclaimed) {
    Record(SafetyViolationKind::kReclaimedTableWalk, iova, now);
    return;
  }
  if (access.stale_ptcache_live) {
    Record(SafetyViolationKind::kStalePtcachePointer, iova, now);
    return;
  }
  if (!access.translated) {
    return;  // the IOMMU faulted the access: safety held
  }
  auto it = pages_.find(PageNumber(iova));
  if (it == pages_.end()) {
    return;  // page unknown to the oracle (unmanaged mapping): no verdict
  }
  if (!it->second.live || access.stale_iotlb) {
    Record(SafetyViolationKind::kUseAfterUnmap, iova, now);
    return;
  }
  // Live page, silent translation: the IOVA-epoch checks cannot see a stale
  // IOTLB entry that aliases a reused IOVA to its pre-crash frame, so verify
  // the physical target. A hit in a rebooted host's reclaimed pool is the
  // cross-host crash invariant; a mismatch against the driver's recorded
  // backing is the same bug caught after the frame was re-handed out.
  if (!access.phys_valid) {
    return;
  }
  if (reclaimed_frames_.find(PageNumber(access.phys)) != reclaimed_frames_.end()) {
    Record(SafetyViolationKind::kDmaToReclaimedFrame, iova, now);
    return;
  }
  if (it->second.phys_known && PageNumber(it->second.phys) != PageNumber(access.phys)) {
    Record(SafetyViolationKind::kStaleDmaTranslation, iova, now);
  }
}

std::string SafetyOracle::TraceString() const {
  std::ostringstream os;
  for (const SafetyViolation& v : violations_) {
    os << "t=" << v.time << " iova=0x" << std::hex << v.iova << std::dec
       << " kind=" << SafetyViolationKindName(v.kind) << " epoch=" << v.epoch << "\n";
  }
  return os.str();
}

std::string ElideTrace(const std::string& trace, std::size_t max_lines) {
  std::size_t pos = 0;
  for (std::size_t lines = 0; pos < trace.size() && lines < max_lines; ++lines) {
    const std::size_t nl = trace.find('\n', pos);
    pos = nl == std::string::npos ? trace.size() : nl + 1;
  }
  if (pos == trace.size()) {
    return trace;
  }
  const auto rest =
      std::count(trace.begin() + static_cast<std::ptrdiff_t>(pos), trace.end(), '\n');
  return trace.substr(0, pos) + "  ... (" + std::to_string(rest) + " more)\n";
}

}  // namespace fsio

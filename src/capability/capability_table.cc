#include "src/capability/capability_table.h"

#include <sstream>
#include <utility>

namespace fsio {

CapabilityTable::CapabilityTable(const CapabilityConfig& config, StatsRegistry* stats)
    : config_(config) {
  entries_.emplace_back();  // slot 0: permanently stale sentinel
  if (stats != nullptr) {
    grants_ = stats->Get("capability.grants");
    revokes_ = stats->Get("capability.revokes");
    double_revokes_ = stats->Get("capability.double_revokes");
    quiesces_ = stats->Get("capability.quiesces");
    checks_ = stats->Get("capability.checks");
    check_rejects_ = stats->Get("capability.check_rejects");
  }
}

std::uint64_t CapabilityTable::TakeSlot() {
  if (!free_slots_.empty()) {
    const std::uint64_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  entries_.emplace_back();
  return entries_.size() - 1;
}

CapabilityTable::GrantResult CapabilityTable::GrantPages(std::vector<std::uint64_t> pages) {
  GrantResult out;
  if (pages.empty()) {
    return out;
  }
  const std::uint64_t slot = TakeSlot();
  Entry& e = entries_[slot];
  e.live = true;
  e.armed = false;
  for (const std::uint64_t page : pages) {
    // Re-granting a still-covered page would leave two owners; the last
    // grant wins and the stale index entry is simply replaced. The
    // consistency invariant keeps honest callers honest about it.
    page_to_slot_[page] = slot;
  }
  e.pages = std::move(pages);
  ++live_count_;
  out.id = CapabilityId{slot, e.epoch};
  out.cpu_ns = kGrantCpuNs + kGrantPageCpuNs * static_cast<TimeNs>(e.pages.size());
  if (grants_ != nullptr) {
    grants_->Add();
  }
  return out;
}

CapabilityTable::GrantResult CapabilityTable::Grant(const std::vector<Iova>& page_addrs) {
  std::vector<std::uint64_t> pages;
  pages.reserve(page_addrs.size());
  for (const Iova addr : page_addrs) {
    pages.push_back(PageNumber(addr));
  }
  return GrantPages(std::move(pages));
}

CapabilityTable::GrantResult CapabilityTable::GrantRange(Iova base, std::uint64_t pages) {
  std::vector<std::uint64_t> list;
  list.reserve(pages);
  const std::uint64_t first = PageNumber(base);
  for (std::uint64_t i = 0; i < pages; ++i) {
    list.push_back(first + i);
  }
  return GrantPages(std::move(list));
}

CapabilityTable::RevokeResult CapabilityTable::Revoke(CapabilityId id) {
  RevokeResult out;
  if (id.slot == 0 || id.slot >= entries_.size()) {
    if (double_revokes_ != nullptr) {
      double_revokes_->Add();
    }
    return out;
  }
  Entry& e = entries_[id.slot];
  if (!CapabilityCheckPasses(e.live, e.epoch, id.epoch)) {
    // Stale or duplicate revoke (e.g. a duplicated completion): idempotent.
    if (double_revokes_ != nullptr) {
      double_revokes_->Add();
    }
    return out;
  }
  out.revoked = true;
  out.cpu_ns = kRevokeCpuNs;
  if (e.armed) {
    // The device validated descriptors against this entry: the revoke waits
    // out the bounded in-flight window before the entry dies.
    out.quiesced = true;
    out.cpu_ns += kQuiesceCpuNs;
    if (quiesces_ != nullptr) {
      quiesces_->Add();
    }
  }
  for (const std::uint64_t page : e.pages) {
    // Only erase index entries this capability still owns (a later grant of
    // the same page moved ownership).
    if (auto it = page_to_slot_.find(page); it != page_to_slot_.end() && it->second == id.slot) {
      page_to_slot_.erase(it);
    }
  }
  e.pages.clear();
  e.live = false;
  e.armed = false;
  ++e.epoch;  // stale handles to this slot fail from here on
  --live_count_;
  free_slots_.push_back(id.slot);
  if (revokes_ != nullptr) {
    revokes_->Add();
  }
  return out;
}

CapabilityTable::CheckResult CapabilityTable::Check(Iova addr) {
  CheckResult out;
  out.check_ns = config_.check_ns;
  if (checks_ != nullptr) {
    checks_->Add();
  }
  const auto it = page_to_slot_.find(PageNumber(addr));
  if (it == page_to_slot_.end()) {
    if (check_rejects_ != nullptr) {
      check_rejects_->Add();
    }
    return out;
  }
  Entry& e = entries_[it->second];
  e.armed = true;
  out.granted = true;
  out.id = CapabilityId{it->second, e.epoch};
  return out;
}

bool CapabilityTable::CheckHandle(CapabilityId id) const {
  if (id.slot == 0 || id.slot >= entries_.size()) {
    return false;
  }
  const Entry& e = entries_[id.slot];
  return CapabilityCheckPasses(e.live, e.epoch, id.epoch);
}

CapabilityId CapabilityTable::Lookup(Iova addr) const {
  const auto it = page_to_slot_.find(PageNumber(addr));
  if (it == page_to_slot_.end()) {
    return CapabilityId{};
  }
  return CapabilityId{it->second, entries_[it->second].epoch};
}

bool CapabilityTable::CheckConsistency(std::string* detail) const {
  auto fail = [&](const std::string& why) {
    if (detail != nullptr) {
      *detail = why;
    }
    return false;
  };
  std::uint64_t live = 0;
  std::uint64_t covered = 0;
  for (std::uint64_t slot = 1; slot < entries_.size(); ++slot) {
    const Entry& e = entries_[slot];
    if (!e.live) {
      if (!e.pages.empty()) {
        std::ostringstream os;
        os << "dead slot " << slot << " still lists " << e.pages.size() << " pages";
        return fail(os.str());
      }
      continue;
    }
    ++live;
    for (const std::uint64_t page : e.pages) {
      const auto it = page_to_slot_.find(page);
      if (it == page_to_slot_.end() || it->second != slot) {
        std::ostringstream os;
        os << "slot " << slot << " lists page " << page << " but the index disagrees";
        return fail(os.str());
      }
      ++covered;
    }
  }
  if (live != live_count_) {
    std::ostringstream os;
    os << "live slots " << live << " != live_count " << live_count_;
    return fail(os.str());
  }
  if (covered != page_to_slot_.size()) {
    std::ostringstream os;
    os << "covered pages " << covered << " != index size " << page_to_slot_.size();
    return fail(os.str());
  }
  return true;
}

}  // namespace fsio

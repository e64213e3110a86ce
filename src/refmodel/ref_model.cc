#include "src/refmodel/ref_model.h"

#include <sstream>

namespace fsio {

void RefModel::Map(std::uint64_t page, PhysAddr phys) {
  mapped_[page] = phys;
  visible_[page] = phys;
  owned_.insert(page);
}

void RefModel::Reacquire(std::uint64_t page) { owned_.insert(page); }

void RefModel::Unmap(std::uint64_t page) {
  mapped_.erase(page);
  owned_.erase(page);
  // Deferred mode leaves the page device-visible until FlushAll; every other
  // mode revokes it now (persistent pools keep it visible by calling Release
  // instead).
  if (semantics_ != UnmapSemantics::kDeferredInvalidate) {
    visible_.erase(page);
  }
}

void RefModel::Release(std::uint64_t page) { owned_.erase(page); }

void RefModel::FlushAll() {
  visible_.clear();
  visible_.insert(mapped_.begin(), mapped_.end());
}

std::optional<std::string> RefModel::CheckTranslation(Iova iova, const TranslationResult& result) {
  const std::uint64_t page = PageNumber(iova);
  const std::uint64_t offset = iova & (kPageSize - 1);
  auto diverge = [&](const std::string& why) {
    std::ostringstream os;
    os << "translation of iova=0x" << std::hex << iova << std::dec << ": " << why
       << " (fault=" << result.fault << " phys=0x" << std::hex << result.phys << std::dec
       << " iotlb_hit=" << result.iotlb_hit << " stale_iotlb=" << result.stale_iotlb
       << " stale_ptcache=" << result.stale_ptcache
       << " stale_ptcache_reclaimed=" << result.stale_ptcache_reclaimed
       << "; model: mapped=" << IsMapped(page) << " visible=" << IsVisible(page)
       << " owned=" << IsOwned(page) << ")";
    return std::optional<std::string>(os.str());
  };

  // No mode's contract ever lets hardware consume a stale page-table-cache
  // pointer: strict modes drop PTcache entries on unmap, preserve modes only
  // keep them because reclamation (the sole event that invalidates them)
  // triggers an explicit PTcache invalidation.
  if (result.stale_ptcache) {
    return diverge("stale PTcache pointer consumed — reclamation invalidation lost");
  }

  if (auto it = mapped_.find(page); it != mapped_.end()) {
    if (result.fault) {
      return diverge("fault for a mapped page");
    }
    if (result.stale_use) {
      return diverge("stale-flagged translation for a mapped page");
    }
    if (result.phys != it->second + offset) {
      std::ostringstream os;
      os << "wrong phys for a mapped page, expected 0x" << std::hex << it->second + offset;
      return diverge(os.str());
    }
    if (!owned_.contains(page)) {
      // Persistent pools: the translation is legal but the driver released
      // the buffer — the safety oracle must count a use-after-unmap.
      ++predicted_use_after_unmap_;
    }
    return std::nullopt;
  }

  if (auto it = visible_.find(page); it != visible_.end()) {
    // Deferred-mode stale window: the IOTLB may still serve the unmapped
    // translation (flagged stale), or the entry was evicted and the walk
    // faults cleanly. Nothing else is legal.
    if (result.fault) {
      if (result.stale_use) {
        return diverge("fault carrying stale flags");
      }
      return std::nullopt;
    }
    if (!result.stale_iotlb) {
      return diverge("clean success for an unmapped (stale-window) page");
    }
    if (result.phys != it->second + offset) {
      std::ostringstream os;
      os << "stale translation returned wrong phys, expected 0x" << std::hex
         << it->second + offset;
      return diverge(os.str());
    }
    ++predicted_use_after_unmap_;
    return std::nullopt;
  }

  // Invisible page: the device must fault, with no stale evidence.
  if (!result.fault) {
    return diverge("translation succeeded for a page the device must not see");
  }
  if (result.stale_use) {
    return diverge("fault carrying stale flags for an invisible page");
  }
  return std::nullopt;
}

std::optional<std::string> RefModel::CheckCapability(Iova iova, bool allowed) {
  const std::uint64_t page = PageNumber(iova);
  auto diverge = [&](const std::string& why) {
    std::ostringstream os;
    os << "capability check for iova=0x" << std::hex << iova << std::dec << ": " << why
       << " (allowed=" << allowed << "; model: mapped=" << IsMapped(page)
       << " owned=" << IsOwned(page) << ")";
    return std::optional<std::string>(os.str());
  };

  if (mapped_.contains(page)) {
    if (!allowed) {
      return diverge("check refused a granted page");
    }
    if (!owned_.contains(page)) {
      // Released-but-still-granted buffer (persistent-style reuse): legal
      // check outcome, but the landing access is a use-after-unmap.
      ++predicted_use_after_unmap_;
    }
    return std::nullopt;
  }

  // Revoked (or never granted) page: the unmap revoked synchronously, so the
  // device must be refused in this very op-window — a pass here means the
  // check was skipped or the revocation protocol is broken.
  if (allowed) {
    return diverge("check passed for a revoked page");
  }
  return std::nullopt;
}

}  // namespace fsio

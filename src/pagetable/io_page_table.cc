#include "src/pagetable/io_page_table.h"

#include <sstream>

namespace fsio {

IoPageTable::IoPageTable(std::uint64_t first_page_id) : next_page_id_(first_page_id) {
  root_.reset(NewPage(1));
}

IoPageTable::~IoPageTable() = default;

IoPageTable::TablePage* IoPageTable::NewPage(int level) {
  auto* page = new TablePage();
  page->id = next_page_id_++;
  page->level = level;
  live_page_ids_.insert(page->id);
  return page;
}

void IoPageTable::ReleasePage(TablePage* page, UnmapResult* out) {
  live_page_ids_.erase(page->id);
  ++reclaimed_pages_;
  out->reclaimed.push_back(ReclaimedTablePage{page->id, page->level});
}

bool IoPageTable::Map(Iova iova, PhysAddr phys) {
  ++mutation_version_;
  iova = PageAlignDown(iova);
  TablePage* page = root_.get();
  for (int level = 1; level < kPtLevels; ++level) {
    Entry& entry = page->entries[LevelIndex(iova, level)];
    if (!entry.present) {
      entry.child.reset(NewPage(level + 1));
      entry.present = true;
      ++page->valid_count;
    } else if (entry.huge) {
      return false;  // range already covered by a huge mapping
    }
    page = entry.child.get();
  }
  Entry& leaf = page->entries[LevelIndex(iova, kPtLevels)];
  if (leaf.present) {
    return false;
  }
  leaf.present = true;
  leaf.phys = phys;
  ++page->valid_count;
  ++mapped_pages_;
  return true;
}

bool IoPageTable::MapHuge(Iova iova, PhysAddr phys) {
  ++mutation_version_;
  const std::uint64_t huge_size = LevelEntrySpan(3);
  if ((iova & (huge_size - 1)) != 0 || (phys & (huge_size - 1)) != 0) {
    return false;
  }
  TablePage* page = root_.get();
  for (int level = 1; level < 3; ++level) {
    Entry& entry = page->entries[LevelIndex(iova, level)];
    if (!entry.present) {
      entry.child.reset(NewPage(level + 1));
      entry.present = true;
      ++page->valid_count;
    } else if (entry.huge) {
      return false;
    }
    page = entry.child.get();
  }
  Entry& leaf = page->entries[LevelIndex(iova, 3)];
  if (leaf.present) {
    return false;  // a PT-L4 subtree or another huge entry already exists
  }
  leaf.present = true;
  leaf.huge = true;
  leaf.phys = phys;
  ++page->valid_count;
  mapped_pages_ += huge_size / kPageSize;
  return true;
}

void IoPageTable::UnmapRange(TablePage* page, Iova page_base, Iova start, Iova end,
                             UnmapResult* out) {
  const std::uint64_t entry_span = LevelEntrySpan(page->level);
  // Entry indices of this page overlapped by [start, end).
  const Iova lo = start > page_base ? start : page_base;
  const Iova page_end = page_base + entry_span * kEntriesPerTable;
  const Iova hi = end < page_end ? end : page_end;
  if (lo >= hi) {
    return;
  }
  std::uint64_t first = (lo - page_base) / entry_span;
  std::uint64_t last = (hi - 1 - page_base) / entry_span;
  for (std::uint64_t i = first; i <= last; ++i) {
    Entry& entry = page->entries[i];
    if (!entry.present) {
      continue;
    }
    const Iova child_base = page_base + i * entry_span;
    if (page->level == kPtLevels) {
      // Leaf entry: the whole 4 KB page is inside [start, end) because the
      // caller page-aligns the range.
      entry.present = false;
      entry.phys = 0;
      --page->valid_count;
      --mapped_pages_;
      ++out->unmapped_pages;
      continue;
    }
    if (entry.huge) {
      // 2 MB leaf entry: unmapped only when the call covers its whole span
      // (huge mappings cannot be partially torn down without splitting).
      if (start <= child_base && end >= child_base + entry_span) {
        entry.present = false;
        entry.huge = false;
        entry.phys = 0;
        --page->valid_count;
        mapped_pages_ -= entry_span / kPageSize;
        out->unmapped_pages += entry_span / kPageSize;
      }
      continue;
    }
    TablePage* child = entry.child.get();
    UnmapRange(child, child_base, start, end, out);
    // Single-call reclamation: free the child only if this call's range
    // covers the child's entire span and the child is now empty.
    const bool span_covered = start <= child_base && end >= child_base + entry_span;
    if (span_covered && child->valid_count == 0) {
      ReleasePage(child, out);
      entry.child.reset();
      entry.present = false;
      --page->valid_count;
    }
  }
}

UnmapResult IoPageTable::Unmap(Iova start, std::uint64_t len) {
  ++mutation_version_;
  UnmapResult out;
  if (len == 0) {
    return out;
  }
  start = PageAlignDown(start);
  const Iova end = PageAlignUp(start + len);
  UnmapRange(root_.get(), 0, start, end, &out);
  return out;
}

WalkResult IoPageTable::Walk(Iova iova) const {
  WalkResult out;
  const TablePage* page = root_.get();
  for (int level = 1; level <= kPtLevels; ++level) {
    out.path_page_id[level - 1] = page->id;
    const Entry& entry = page->entries[LevelIndex(iova, level)];
    if (!entry.present) {
      return out;
    }
    if (entry.huge) {
      out.present = true;
      out.huge = true;
      out.phys = entry.phys + (iova & (LevelEntrySpan(3) - 1));
      return out;
    }
    if (level == kPtLevels) {
      out.present = true;
      out.phys = entry.phys + (iova & (kPageSize - 1));
      return out;
    }
    page = entry.child.get();
  }
  return out;
}

bool IoPageTable::IsMapped(Iova iova) const { return Walk(iova).present; }

namespace {

// Recursive walker for CheckConsistency. Returns false on the first
// structural defect found.
struct ConsistencyScan {
  std::uint64_t leaf_pages = 0;
  std::unordered_set<std::uint64_t> reachable_ids;
};

}  // namespace

bool IoPageTable::CheckConsistency(std::string* detail) const {
  ConsistencyScan scan;
  std::string defect;
  // Iterative DFS to keep this non-recursive over the member struct.
  std::vector<const TablePage*> stack = {root_.get()};
  while (!stack.empty() && defect.empty()) {
    const TablePage* page = stack.back();
    stack.pop_back();
    scan.reachable_ids.insert(page->id);
    std::uint32_t present = 0;
    for (const Entry& entry : page->entries) {
      if (!entry.present) {
        continue;
      }
      ++present;
      if (entry.huge) {
        if (page->level != 3) {
          std::ostringstream os;
          os << "huge entry at level " << page->level << " (page " << page->id << ")";
          defect = os.str();
          break;
        }
        scan.leaf_pages += LevelEntrySpan(3) / kPageSize;
      } else if (page->level == kPtLevels) {
        ++scan.leaf_pages;
      } else {
        if (entry.child == nullptr) {
          std::ostringstream os;
          os << "present non-leaf entry without child (page " << page->id << ")";
          defect = os.str();
          break;
        }
        stack.push_back(entry.child.get());
      }
    }
    if (defect.empty() && present != page->valid_count) {
      std::ostringstream os;
      os << "page " << page->id << " valid_count=" << page->valid_count
         << " but present entries=" << present;
      defect = os.str();
    }
  }
  if (defect.empty() && scan.leaf_pages != mapped_pages_) {
    std::ostringstream os;
    os << "leaf sum=" << scan.leaf_pages << " but mapped_pages=" << mapped_pages_;
    defect = os.str();
  }
  if (defect.empty() && scan.reachable_ids != live_page_ids_) {
    std::ostringstream os;
    os << "live page-id set (" << live_page_ids_.size() << ") != reachable set ("
       << scan.reachable_ids.size() << ")";
    defect = os.str();
  }
  if (!defect.empty()) {
    if (detail != nullptr) {
      *detail = defect;
    }
    return false;
  }
  return true;
}

}  // namespace fsio

// Four-level IO page table with Linux-style table-page reclamation.
//
// Level numbering follows the paper: PT-L1 is the root; PT-L4 pages hold leaf
// entries mapping 4 KB IOVAs to physical frames. Every table page carries a
// unique, never-reused id so the IOMMU model can detect use of stale cached
// pointers (the safety property F&S must preserve). A table that replaces
// another one (a rebuilt protection domain) continues the old table's
// numbering, so ids stay unique across the replacement too.
//
// Reclamation rule (paper §3, Fig. 5): a table page is reclaimed during an
// Unmap call only if that *single* call's range covers the page's entire
// address span and the page ends up empty. Many small unmaps that together
// cover the span never reclaim — which is precisely why preserving PTcaches
// on per-descriptor unmaps is safe.
#ifndef FASTSAFE_SRC_PAGETABLE_IO_PAGE_TABLE_H_
#define FASTSAFE_SRC_PAGETABLE_IO_PAGE_TABLE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/mem/address.h"

namespace fsio {

// Identifies a reclaimed table page: `level` is the page's own level (2..4).
struct ReclaimedTablePage {
  std::uint64_t page_id = 0;
  int level = 0;
};

struct UnmapResult {
  std::uint64_t unmapped_pages = 0;
  std::vector<ReclaimedTablePage> reclaimed;
  bool reclaimed_any() const { return !reclaimed.empty(); }
};

// Result of a full (cache-less) table walk for one IOVA.
struct WalkResult {
  bool present = false;
  bool huge = false;  // mapped by a 2 MB (PT-L3 leaf) entry
  PhysAddr phys = 0;
  // Ids of the table pages on the walk path: path_page_id[i] is the PT-L(i+1)
  // page (0-indexed: [0]=PT-L1 root, [3]=PT-L4 leaf page). Entries past the
  // deepest existing page are 0.
  std::array<std::uint64_t, kPtLevels> path_page_id = {0, 0, 0, 0};
};

class IoPageTable {
 public:
  // The root gets id `first_page_id`; later pages count up from it.
  explicit IoPageTable(std::uint64_t first_page_id = 1);
  ~IoPageTable();
  IoPageTable(const IoPageTable&) = delete;
  IoPageTable& operator=(const IoPageTable&) = delete;

  // Maps the 4 KB page at `iova` (must be page-aligned) to `phys`.
  // Returns false if the IOVA is already mapped (no change is made).
  bool Map(Iova iova, PhysAddr phys);

  // Maps a 2 MB huge page: `iova` and `phys` must be 2 MB aligned. The
  // mapping occupies one PT-L3 leaf entry (no PT-L4 page is created).
  // Returns false if any part of the range is already mapped.
  bool MapHuge(Iova iova, PhysAddr phys);

  // Unmaps every mapped page in [start, start + len) as one operation
  // (`start` page-aligned, `len` a multiple of the page size), applying the
  // single-call reclamation rule above.
  UnmapResult Unmap(Iova start, std::uint64_t len);

  // Full walk (no caches) for the page containing `iova`.
  WalkResult Walk(Iova iova) const;

  bool IsMapped(Iova iova) const;

  // True if the table page with this id is still part of the tree. A cached
  // pointer to a non-live page is stale.
  bool IsLiveTablePage(std::uint64_t page_id) const {
    return live_page_ids_.contains(page_id);
  }

  // Structural self-check: every table page's valid_count equals its number
  // of present entries, the sum of leaf mappings equals mapped_pages(), and
  // the live-page-id set matches exactly the pages reachable from the root.
  // On failure returns false and writes a description to `detail`.
  bool CheckConsistency(std::string* detail) const;

  // Incremented by every mutator (Map/MapHuge/Unmap). Lets callers memoize
  // IsMapped/Walk results for as long as the table is untouched.
  std::uint64_t mutation_version() const { return mutation_version_; }

  std::uint64_t mapped_pages() const { return mapped_pages_; }
  std::uint64_t live_table_pages() const { return live_page_ids_.size(); }
  // The id the next table page will get: the `first_page_id` for a table
  // that replaces this one.
  std::uint64_t next_page_id() const { return next_page_id_; }
  std::uint64_t total_table_pages_reclaimed() const { return reclaimed_pages_; }

 private:
  struct TablePage;
  struct Entry {
    bool present = false;
    bool huge = false;                  // PT-L3 leaf (2 MB) entry
    PhysAddr phys = 0;                  // leaf entries only
    std::unique_ptr<TablePage> child;   // non-leaf entries only
  };
  struct TablePage {
    std::uint64_t id = 0;
    int level = 1;  // 1..4
    std::uint32_t valid_count = 0;
    std::array<Entry, kEntriesPerTable> entries;
  };

  TablePage* NewPage(int level);
  void ReleasePage(TablePage* page, UnmapResult* out);
  // Recursive unmap over `page` (whose covered range starts at `page_base`).
  void UnmapRange(TablePage* page, Iova page_base, Iova start, Iova end, UnmapResult* out);

  std::unique_ptr<TablePage> root_;
  std::uint64_t next_page_id_;
  std::uint64_t mapped_pages_ = 0;
  std::uint64_t mutation_version_ = 0;
  std::uint64_t reclaimed_pages_ = 0;
  std::unordered_set<std::uint64_t> live_page_ids_;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_PAGETABLE_IO_PAGE_TABLE_H_

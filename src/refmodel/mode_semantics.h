// The reference model's contract transitions, one per driver event. The
// per-mode classification they take, UnmapSemantics and UnmapSemanticsFor(),
// lives in src/driver/protection.h beside the mode table, so the driver,
// RefModel and the model checker execute one table:
//
//   * RefModel (src/refmodel/ref_model.cc) applies these transitions to its
//     flat contract state while the differential harness drives the real
//     stack in lockstep.
//   * The bounded model checker (src/check/) uses UnmapSemanticsFor() to pick
//     the unmap/invalidate/reclaim protocol template it exhaustively
//     interleaves against device DMA.
//
// Everything here is a pure function of (mode, state): no clocks, no
// counters, no hardware handles. That is what makes the transitions reusable
// as model-checker actions — applying one is side-effect-free and cheap
// enough to run millions of times during state-space exploration.
#ifndef FASTSAFE_SRC_REFMODEL_MODE_SEMANTICS_H_
#define FASTSAFE_SRC_REFMODEL_MODE_SEMANTICS_H_

#include <cstdint>
#include <map>
#include <set>

#include "src/driver/protection.h"
#include "src/mem/address.h"

namespace fsio {

// The flat contract state RefModel reasons over (see ref_model.h for the
// container meanings). A plain value type so transitions can be applied to
// copies during exploration.
struct ContractState {
  std::map<std::uint64_t, PhysAddr> mapped;   // page -> phys in the IO page table
  std::map<std::uint64_t, PhysAddr> visible;  // mapped + mode-legal stale windows
  std::set<std::uint64_t> owned;              // driver-owned (DMA-active) pages
};

// Driver maps `page` to `phys`: table entry, immediate visibility, ownership.
inline void ContractMap(ContractState* s, std::uint64_t page, PhysAddr phys) {
  s->mapped[page] = phys;
  s->visible[page] = phys;
  s->owned.insert(page);
}

// Persistent-pool reacquire: ownership returns, translations untouched.
inline void ContractReacquire(ContractState* s, std::uint64_t page) {
  s->owned.insert(page);
}

// Driver unmap returns. Whether visibility survives the call is exactly the
// mode's UnmapSemantics: synchronous revocation drops it now, deferred mode
// leaves the page visible until ContractFlushAll, release-only never revokes.
inline void ContractUnmap(ContractState* s, UnmapSemantics semantics, std::uint64_t page) {
  s->mapped.erase(page);
  s->owned.erase(page);
  if (semantics != UnmapSemantics::kDeferredInvalidate) {
    s->visible.erase(page);
  }
}

// Persistent-pool release: ownership ends, mapping and visibility stay.
inline void ContractRelease(ContractState* s, std::uint64_t page) {
  s->owned.erase(page);
}

// Deferred-mode batched flush: visibility collapses to the mapped set.
inline void ContractFlushAll(ContractState* s) {
  s->visible.clear();
  s->visible.insert(s->mapped.begin(), s->mapped.end());
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_MODE_SEMANTICS_H_

// Lint fixture (never compiled): a driver layer that wires the NIC's
// capability gate before feeding it descriptors passes the
// unchecked-descriptor-enqueue rule, and a justified allow directive
// suppresses it for a deliberately ungated path.
#include "src/driver/dma_api.h"
#include "src/nic/nic.h"

namespace fsio {

void GoodWiredEnqueue(Nic* nic, DmaApi* dma, std::vector<DmaMapping> mappings) {
  nic->SetCapabilityCheck(
      [dma](const std::vector<DmaMapping>& ms, TimeNs now) {
        return dma->DeviceCheckCapability(ms, now);
      });
  nic->PostRxDescriptor(0, std::move(mappings));
}

void JustifiedUngatedEnqueue(Nic* nic, const TxPacket& packet,
                             std::vector<DmaMapping> mappings) {
  // Strict-mode-only path: the IOMMU is the gate here, there is no
  // capability table to consult.  fsio-lint: allow(unchecked-descriptor-enqueue)
  nic->EnqueueTx(packet, std::move(mappings), 0);
}

}  // namespace fsio

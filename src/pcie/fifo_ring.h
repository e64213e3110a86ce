// FIFO queue on a circular buffer, for the root complex's per-TLP queues.
//
// Storage is allocated once, at the capacity the owner expects to need;
// push_back doubles it only when the ring is full, so a queue that stays
// within its expected depth never allocates again.
#ifndef FASTSAFE_SRC_PCIE_FIFO_RING_H_
#define FASTSAFE_SRC_PCIE_FIFO_RING_H_

#include <cstddef>
#include <vector>

namespace fsio {

template <typename T>
class FifoRing {
 public:
  explicit FifoRing(std::size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  const T& front() const { return slots_[head_]; }

  void pop_front() {
    head_ = head_ + 1 == slots_.size() ? 0 : head_ + 1;
    --size_;
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) {
      tail -= slots_.size();
    }
    slots_[tail] = value;
    ++size_;
  }

 private:
  // Doubles the storage, unrolling the queue to start at slot 0.
  void Grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = slots_[(head_ + i) % slots_.size()];
    }
    head_ = 0;
    slots_.swap(bigger);
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_PCIE_FIFO_RING_H_

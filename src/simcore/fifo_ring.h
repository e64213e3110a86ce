// FIFO queue on a circular buffer, for the simulator's per-packet and
// per-TLP queues (root complex, NIC Rx/Tx engines, host cores).
//
// Storage is allocated once, at the capacity the owner expects to need
// rounded up to a power of two, so a slot index is a mask and not a compare;
// push_back doubles it only when the ring is full, so a queue that stays
// within its high-water mark never allocates again. pop_front leaves the
// popped slot's value in place until a later push overwrites it: move a
// resource-owning element out of front() before popping it.
#ifndef FASTSAFE_SRC_SIMCORE_FIFO_RING_H_
#define FASTSAFE_SRC_SIMCORE_FIFO_RING_H_

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace fsio {

template <typename T>
class FifoRing {
 public:
  explicit FifoRing(std::size_t capacity)
      : slots_(std::bit_ceil(capacity)), mask_(slots_.size() - 1) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  // The i-th element from the front, i < size().
  const T& operator[](std::size_t i) const { return slots_[Slot(i)]; }

  void pop_front() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void push_back(const T& value) { EmplaceTail() = value; }
  void push_back(T&& value) { EmplaceTail() = std::move(value); }

  // Empties the queue and resets the live slots, releasing what they own.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      slots_[Slot(i)] = T();
    }
    head_ = 0;
    size_ = 0;
  }

 private:
  std::size_t Slot(std::size_t i) const { return (head_ + i) & mask_; }

  // Makes room for one more element and returns its (tail) slot.
  T& EmplaceTail() {
    if (size_ > mask_) {
      Grow();
    }
    T& tail = slots_[Slot(size_)];
    ++size_;
    return tail;
  }

  // Doubles the storage, unrolling the queue to start at slot 0.
  void Grow() {
    std::vector<T> bigger(slots_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[Slot(i)]);
    }
    head_ = 0;
    slots_.swap(bigger);
    mask_ = slots_.size() - 1;
  }

  std::vector<T> slots_;
  std::size_t mask_;  // slots_.size() - 1
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fsio

#endif  // FASTSAFE_SRC_SIMCORE_FIFO_RING_H_

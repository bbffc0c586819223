// Single-FIFO queue discipline: one service class (see sched/class_queue.h)
// with an optional AQM policy. This models one switch output queue:
// tail-drop on overflow, enqueue-time marking/dropping via
// AqmPolicy::AllowEnqueue, dequeue-time (sojourn) marking via
// AqmPolicy::OnDequeue.
#ifndef ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_
#define ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_

#include <array>
#include <cstdint>
#include <memory>

#include "sched/class_queue.h"

namespace ecnsharp {

class FifoQueueDisc final
    : public ClassQueueDisc<std::array<ClassQueue, 1>> {
 public:
  // `capacity_bytes` is the buffer available to this queue when `pool` is
  // null. Otherwise the queue draws buffer from the shared policy (Dynamic
  // Threshold, static split, or DT+headroom — see buffer/policies.h), which
  // must outlive the disc; `priority` selects its per-priority parameters.
  // A null `aqm` means plain drop-tail.
  FifoQueueDisc(std::uint64_t capacity_bytes, std::unique_ptr<AqmPolicy> aqm,
                BufferPolicy* pool = nullptr, std::uint8_t priority = 0)
      : ClassQueueDisc(capacity_bytes, pool) {
    classes_[0].Attach(std::move(aqm), pool, priority);
  }

  // Inline: this is the per-packet hot path of every port.
  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override {
    return Admit(classes_[0], *pkt, now) &&
           Accept(classes_[0], std::move(pkt), now);
  }
  std::unique_ptr<Packet> Dequeue(Time now) override {
    return classes_[0].empty() ? nullptr : Pop(classes_[0], now);
  }

  AqmPolicy* aqm() { return classes_[0].aqm(); }
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_

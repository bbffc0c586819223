// Strict-priority scheduler: class 0 is always served first, then class 1,
// and so on. Each class has its own FIFO and optional AQM instance — the
// second scheduler used to demonstrate that sojourn-time AQMs (TCN, ECN#)
// compose with arbitrary schedulers (§3.2, §5.4).
#ifndef ECNSHARP_SCHED_SP_QUEUE_DISC_H_
#define ECNSHARP_SCHED_SP_QUEUE_DISC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/class_queue.h"

namespace ecnsharp {

class SpQueueDisc final : public MultiClassDisc<ClassQueue> {
 public:
  struct ClassConfig {
    std::unique_ptr<AqmPolicy> aqm;  // may be null
  };

  // A null `pool` means a static `capacity_bytes` shared by all classes;
  // otherwise class i draws from the pool with priority i (its strict-
  // priority rank). The pool must outlive the disc.
  SpQueueDisc(std::uint64_t capacity_bytes, std::vector<ClassConfig> classes,
              BufferPolicy* pool = nullptr, Classifier classifier = nullptr)
      : MultiClassDisc(capacity_bytes, classes, pool, std::move(classifier)) {}

  std::unique_ptr<Packet> Dequeue(Time now) override {
    for (ClassQueue& cls : classes_) {
      if (!cls.empty()) return Pop(cls, now);
    }
    return nullptr;
  }
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_SP_QUEUE_DISC_H_

// Deficit Weighted Round Robin scheduler (Shreedhar & Varghese) with one
// child FIFO queue per service class and a per-class AQM policy instance.
//
// This is the configuration of the paper's Fig. 13 experiment: 3 queues with
// weights 2:1:1, each running its own sojourn-time AQM (per-queue AQM is
// exactly how TCN and ECN# compose with schedulers — a sojourn threshold
// stays meaningful even when the class's drain rate varies with the set of
// active classes).
#ifndef ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_
#define ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sched/class_queue.h"

namespace ecnsharp {

// A DWRR service class: the class core plus its round-robin state.
struct DwrrClass : ClassQueue {
  std::uint32_t weight = 1;
  std::uint64_t deficit = 0;
  bool in_active_list = false;
};

class DwrrQueueDisc final : public MultiClassDisc<DwrrClass> {
 public:
  struct ClassConfig {
    std::uint32_t weight = 1;
    std::unique_ptr<AqmPolicy> aqm;  // may be null (drop-tail class)
  };

  // A null `pool` means a static `capacity_bytes` shared by all classes;
  // otherwise class i draws from the pool with priority i. The pool must
  // outlive the disc. `quantum_bytes` is the base quantum for weight 1; one
  // MTU by default.
  DwrrQueueDisc(std::uint64_t capacity_bytes, std::vector<ClassConfig> classes,
                BufferPolicy* pool = nullptr, Classifier classifier = nullptr,
                std::uint32_t quantum_bytes = kFullPacketBytes);

  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override;
  std::unique_ptr<Packet> Dequeue(Time now) override;
  std::uint32_t PurgeAll(Time now) override;

  // Enables MQ-ECN (Bai et al., NSDI 2016) queue-length marking: each class
  // gets a *dynamic* threshold proportional to its current service share,
  //   K_i(t) = w_i / (sum of weights of backlogged classes) * K_total,
  // and an arriving packet is CE-marked when its class exceeds K_i. This is
  // the queue-length alternative to per-class sojourn AQMs; the fig13
  // ablation compares the two. Not meaningful combined with per-class AQM.
  void EnableMqEcn(std::uint64_t total_threshold_bytes) {
    mq_ecn_total_bytes_ = total_threshold_bytes;
  }
  // The dynamic threshold MQ-ECN currently applies to `cls`.
  std::uint64_t MqEcnThresholdBytes(std::size_t cls) const;

 private:
  std::uint32_t quantum_bytes_;
  std::deque<std::size_t> active_;   // round-robin order of backlogged classes
  // Class currently being served (already granted its quantum); -1 if none.
  std::ptrdiff_t current_ = -1;
  std::uint64_t mq_ecn_total_bytes_ = 0;  // 0 = MQ-ECN disabled
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_

// Pluggable shared-buffer admission policies.
//
// Real switching chips share one packet buffer across all egress queues of a
// chip, and the admission policy — static per-queue split, Dynamic Threshold
// (Choudhury & Hahne), or DT with reserved headroom — decides how loss-based
// and ECN-based congestion controllers split that buffer under contention.
// A BufferPolicy owns the accounting for one chip: queue discs register one
// logical queue per FIFO/class, then reserve on enqueue and release on
// dequeue/purge/AQM-veto. The base class is the single source of truth for
// both pool-level and per-queue byte counts; concrete policies only answer
// the admission question, so accounting invariants hold for every policy.
#ifndef ECNSHARP_BUFFER_BUFFER_POLICY_H_
#define ECNSHARP_BUFFER_BUFFER_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ecnsharp {

class BufferPolicy {
 public:
  virtual ~BufferPolicy() = default;

  BufferPolicy(const BufferPolicy&) = delete;
  BufferPolicy& operator=(const BufferPolicy&) = delete;

  // Registers one queue drawing from this pool and returns its id. `priority`
  // selects per-priority parameters (e.g. the DT alpha) where the policy has
  // them; policies without per-priority state ignore it.
  std::size_t RegisterQueue(std::uint8_t priority);

  // Admission test for `queue` wanting to add `packet_bytes`. On success the
  // bytes are reserved against both the pool and the queue.
  bool TryReserve(std::size_t queue, std::uint32_t packet_bytes);

  // Returns bytes previously reserved by `queue`. Releasing more than the
  // queue (or the pool) holds is an accounting bug — fails fast with exit 2.
  void Release(std::size_t queue, std::uint32_t packet_bytes);

  // Current admission limit for `queue`: the most bytes it could hold right
  // now (policies with occupancy-dependent limits recompute per call).
  virtual std::uint64_t LimitBytes(std::size_t queue) const = 0;

  virtual const char* name() const = 0;

  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t queue_count() const { return queues_.size(); }
  std::uint64_t queue_bytes(std::size_t queue) const;
  std::uint8_t queue_priority(std::size_t queue) const;

 protected:
  struct QueueState {
    std::uint8_t priority = 0;
    std::uint64_t bytes = 0;
  };

  explicit BufferPolicy(std::uint64_t total_bytes);

  // Policy-specific admission decision. The base TryReserve has already
  // enforced the hard pool cap (`used + packet <= total`).
  virtual bool Admit(const QueueState& queue,
                     std::uint32_t packet_bytes) const = 0;

  const std::vector<QueueState>& queues() const { return queues_; }
  std::uint64_t free_bytes() const { return total_bytes_ - used_bytes_; }

 private:
  std::uint64_t total_bytes_;
  std::uint64_t used_bytes_ = 0;
  std::vector<QueueState> queues_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_BUFFER_BUFFER_POLICY_H_

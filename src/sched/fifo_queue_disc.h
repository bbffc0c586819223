// Single-FIFO queue discipline with a byte-capacity buffer and an optional
// AQM policy. This models one switch output queue: tail-drop on overflow,
// enqueue-time marking/dropping via AqmPolicy::AllowEnqueue, dequeue-time
// (sojourn) marking via AqmPolicy::OnDequeue.
//
// Hot-path layout: the backlog lives in a PacketRing (contiguous raw
// pointers, no per-node allocation), the depth/byte counters are reached
// through pointers so BindChipHotState can repoint them into a chip-owned
// SoA block, and threshold-marking AQMs (DCTCP-RED) are inlined via the
// AqmFastPath contract instead of paying two virtual calls per packet.
#ifndef ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_
#define ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_

#include <cstdint>
#include <memory>

#include "buffer/buffer_policy.h"
#include "net/packet.h"
#include "net/packet_ring.h"
#include "net/queue_disc.h"

namespace ecnsharp {

class FifoQueueDisc final : public QueueDisc {
 public:
  // `capacity_bytes` is the buffer available to this queue; a null policy
  // means plain drop-tail.
  FifoQueueDisc(std::uint64_t capacity_bytes, std::unique_ptr<AqmPolicy> aqm)
      : capacity_bytes_(capacity_bytes), aqm_(std::move(aqm)) {
    CacheAqmFastPath();
  }

  // Draws buffer from a shared policy (Dynamic Threshold, static split, or
  // DT+headroom — see buffer/policies.h) instead of a static per-queue
  // capacity. Registers one queue with the policy; `priority` selects
  // per-priority policy parameters (e.g. the DT alpha). The policy must
  // outlive the disc.
  FifoQueueDisc(BufferPolicy& policy, std::unique_ptr<AqmPolicy> aqm,
                std::uint8_t priority = 0)
      : capacity_bytes_(policy.total_bytes()),
        aqm_(std::move(aqm)),
        pool_(&policy),
        pool_queue_(policy.RegisterQueue(priority)) {
    CacheAqmFastPath();
  }

  // Enqueue/Dequeue are defined inline below: this is the per-packet hot
  // path of every port, and the out-of-line definitions cost a call (and
  // block inlining) from the switch datapath and the microbenches.
  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override;
  std::unique_ptr<Packet> Dequeue(Time now) override;
  std::uint32_t PurgeAll(Time now) override;
  QueueSnapshot Snapshot() const override {
    return QueueSnapshot{*packets_, *bytes_};
  }
  void BindChipHotState(ChipHotBlock& block) override;

  AqmPolicy* aqm() { return aqm_.get(); }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  void CacheAqmFastPath() {
    aqm_threshold_mark_ =
        aqm_ != nullptr && aqm_->fast_path() == AqmFastPath::kThresholdMark;
    aqm_threshold_ = aqm_threshold_mark_ ? aqm_->fast_path_threshold() : 0;
  }

  std::uint64_t capacity_bytes_;
  std::unique_ptr<AqmPolicy> aqm_;
  BufferPolicy* pool_ = nullptr;  // non-owning; null = static capacity
  std::size_t pool_queue_ = 0;    // this disc's queue id with the policy
  PacketRing queue_;
  // Occupancy counters, reached through pointers: default to the local
  // fields, repointed into the chip SoA block by BindChipHotState.
  std::uint32_t local_packets_ = 0;
  std::uint64_t local_bytes_ = 0;
  std::uint32_t* packets_ = &local_packets_;
  std::uint64_t* bytes_ = &local_bytes_;
  // Cached AqmFastPath verdict (thresholds are fixed at construction).
  bool aqm_threshold_mark_ = false;
  std::uint64_t aqm_threshold_ = 0;
};

inline bool FifoQueueDisc::Enqueue(std::unique_ptr<Packet> pkt, Time now) {
  if (pool_ != nullptr) {
    if (!pool_->TryReserve(pool_queue_, pkt->size_bytes)) {
      ++stats_.dropped_overflow;
      if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kOverflow);
      return false;
    }
  } else if (*bytes_ + pkt->size_bytes > capacity_bytes_) {
    ++stats_.dropped_overflow;
    if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kOverflow);
    return false;
  }
  if (aqm_threshold_mark_) {
    // Inlined kThresholdMark contract: CE-mark when occupancy including this
    // packet exceeds K, never drop. Identical to the generic path below
    // running AqmPolicy::AllowEnqueue on a threshold marker.
    if (*bytes_ + pkt->size_bytes > aqm_threshold_ && !pkt->IsCeMarked()) {
      pkt->MarkCe();  // no-op for non-ECT packets
      if (pkt->IsCeMarked()) {
        ++stats_.ce_marked;
        if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
      }
    }
  } else if (aqm_ != nullptr) {
    const bool was_ce = pkt->IsCeMarked();
    if (!aqm_->AllowEnqueue(*pkt, Snapshot(), now)) {
      ++stats_.dropped_aqm;
      if (pool_ != nullptr) pool_->Release(pool_queue_, pkt->size_bytes);
      if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kAqm);
      return false;
    }
    if (!was_ce && pkt->IsCeMarked()) {
      ++stats_.ce_marked;
      if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
    }
  }
  pkt->enqueue_time = now;
  ++*packets_;
  *bytes_ += pkt->size_bytes;
  queue_.push_back(std::move(pkt));
  ++stats_.enqueued;
  if (tracer_ != nullptr) tracer_->OnEnqueue(*queue_.back(), now, Snapshot());
  return true;
}

inline std::unique_ptr<Packet> FifoQueueDisc::Dequeue(Time now) {
  if (queue_.empty()) return nullptr;
  std::unique_ptr<Packet> pkt = queue_.pop_front();
  --*packets_;
  *bytes_ -= pkt->size_bytes;
  if (pool_ != nullptr) pool_->Release(pool_queue_, pkt->size_bytes);
  ++stats_.dequeued;
  const Time sojourn = now - pkt->enqueue_time;
  if (tracer_ != nullptr) tracer_->OnDequeue(*pkt, now, Snapshot(), sojourn);
  // kThresholdMark policies have no dequeue hook by contract.
  if (aqm_ != nullptr && !aqm_threshold_mark_) {
    const bool was_ce = pkt->IsCeMarked();
    aqm_->OnDequeue(*pkt, Snapshot(), now, sojourn);
    if (!was_ce && pkt->IsCeMarked()) {
      ++stats_.ce_marked;
      if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
    }
  }
  return pkt;
}

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_FIFO_QUEUE_DISC_H_

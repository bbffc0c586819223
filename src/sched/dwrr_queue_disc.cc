#include "sched/dwrr_queue_disc.h"

#include <utility>

namespace ecnsharp {

DwrrQueueDisc::DwrrQueueDisc(std::uint64_t capacity_bytes,
                             std::vector<ClassConfig> classes,
                             BufferPolicy* pool, Classifier classifier,
                             std::uint32_t quantum_bytes)
    : MultiClassDisc(capacity_bytes, classes, pool, std::move(classifier)),
      quantum_bytes_(quantum_bytes) {
  for (std::size_t i = 0; i < classes.size(); ++i) {
    classes_[i].weight = classes[i].weight;
  }
}

std::uint64_t DwrrQueueDisc::MqEcnThresholdBytes(std::size_t cls_index) const {
  std::uint64_t active_weight = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const bool backlogged = !classes_[i].empty() ||
                            current_ == static_cast<std::ptrdiff_t>(i) ||
                            i == cls_index;
    if (backlogged) active_weight += classes_[i].weight;
  }
  if (active_weight == 0) return mq_ecn_total_bytes_;
  return mq_ecn_total_bytes_ * classes_[cls_index].weight / active_weight;
}

bool DwrrQueueDisc::Enqueue(std::unique_ptr<Packet> pkt, Time now) {
  const std::size_t idx = Classify(*pkt);
  DwrrClass& cls = classes_[idx];
  if (!Admit(cls, *pkt, now)) return false;
  if (mq_ecn_total_bytes_ != 0) {
    // MQ-ECN marks ahead of the class AQM.
    const bool was_ce = pkt->IsCeMarked();
    if (cls.Snapshot().bytes + pkt->size_bytes > MqEcnThresholdBytes(idx)) {
      pkt->MarkCe();
    }
    CountMark(*pkt, was_ce, now);
  }
  if (!Accept(cls, std::move(pkt), now)) return false;
  if (!cls.in_active_list && current_ != static_cast<std::ptrdiff_t>(idx)) {
    cls.in_active_list = true;
    active_.push_back(idx);
  }
  return true;
}

std::unique_ptr<Packet> DwrrQueueDisc::Dequeue(Time now) {
  if (Total().packets == 0) return nullptr;
  // At most one full rotation over the active classes is needed to find a
  // class whose deficit covers its head packet.
  for (;;) {
    if (current_ < 0) {
      if (active_.empty()) return nullptr;  // defensive; cannot happen
      current_ = static_cast<std::ptrdiff_t>(active_.front());
      active_.pop_front();
      DwrrClass& cls = classes_[static_cast<std::size_t>(current_)];
      cls.in_active_list = false;
      cls.deficit += static_cast<std::uint64_t>(cls.weight) * quantum_bytes_;
    }
    DwrrClass& cls = classes_[static_cast<std::size_t>(current_)];
    if (cls.empty()) {
      // Served dry during its turn: reset the deficit so an idle class does
      // not accumulate credit (work-conserving DWRR).
      cls.deficit = 0;
      current_ = -1;
      continue;
    }
    if (cls.front().size_bytes <= cls.deficit) {
      cls.deficit -= cls.front().size_bytes;
      std::unique_ptr<Packet> pkt = Pop(cls, now);
      if (cls.empty()) {
        cls.deficit = 0;
        current_ = -1;
      }
      return pkt;
    }
    // Deficit exhausted: move the class to the back of the round.
    cls.in_active_list = true;
    active_.push_back(static_cast<std::size_t>(current_));
    current_ = -1;
  }
}

std::uint32_t DwrrQueueDisc::PurgeAll(Time now) {
  const std::uint32_t n = MultiClassDisc::PurgeAll(now);
  for (DwrrClass& cls : classes_) {
    cls.deficit = 0;
    cls.in_active_list = false;
  }
  active_.clear();
  current_ = -1;
  return n;
}

}  // namespace ecnsharp

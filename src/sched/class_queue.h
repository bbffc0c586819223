// The per-class queue core every scheduler is built on.
//
// A service class is one FIFO backlog with its own AQM instance and its own
// buffer admission (a static byte capacity shared by the disc, or one queue
// of a shared-buffer pool). FIFO, DWRR and strict priority differ only in
// how many classes they have and which class they pop next; everything a
// class does per packet lives here, once:
//
//  * overflow/pool admission (Admit);
//  * enqueue-time marking — the AllowEnqueue hook, whose veto releases the
//    admission reservation — and the append (Accept);
//  * pop with the sojourn-time OnDequeue hook (Pop);
//  * pop-then-notify purge.
//
// AQMs see their class's snapshot; the tracer sees the disc-wide Snapshot().
//
// Hot-path layout: the backlog lives in a PacketRing (contiguous raw
// pointers), the depth/byte counters are plain members beside it, and the
// disc's class storage is a template parameter, so a FIFO keeps its one
// class inline and pays no virtual call or indirection for it.
#ifndef ECNSHARP_SCHED_CLASS_QUEUE_H_
#define ECNSHARP_SCHED_CLASS_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "buffer/buffer_policy.h"
#include "net/packet.h"
#include "net/packet_ring.h"
#include "net/queue_disc.h"

namespace ecnsharp {

class ClassQueue {
 public:
  // Installs the class's AQM (null = drop-tail) and, on a shared pool,
  // registers one pool queue whose `priority` selects per-priority policy
  // parameters (e.g. the DT alpha). Called once, before the first packet.
  void Attach(std::unique_ptr<AqmPolicy> aqm, BufferPolicy* pool,
              std::uint8_t priority) {
    aqm_ = std::move(aqm);
    pool_ = pool;
    if (pool != nullptr) pool_queue_ = pool->RegisterQueue(priority);
  }

  QueueSnapshot Snapshot() const { return QueueSnapshot{packets_, bytes_}; }
  bool empty() const { return ring_.empty(); }
  const Packet& front() const { return *ring_.front(); }
  AqmPolicy* aqm() const { return aqm_.get(); }

 private:
  template <typename Classes>
  friend class ClassQueueDisc;

  void Release(std::uint32_t bytes) {
    if (pool_ != nullptr) pool_->Release(pool_queue_, bytes);
  }
  // Unlinks the head packet and returns its buffer.
  std::unique_ptr<Packet> Take() {
    std::unique_ptr<Packet> pkt = ring_.pop_front();
    --packets_;
    bytes_ -= pkt->size_bytes;
    Release(pkt->size_bytes);
    return pkt;
  }

  PacketRing ring_;
  std::unique_ptr<AqmPolicy> aqm_;
  BufferPolicy* pool_ = nullptr;  // non-owning; null = static capacity
  std::size_t pool_queue_ = 0;    // this class's queue id with the pool
  std::uint32_t packets_ = 0;
  std::uint64_t bytes_ = 0;
};

// Base of every scheduler. `Classes` is the class storage: an inline
// std::array of one ClassQueue for a FIFO, a std::vector for multi-class
// schedulers. Subclasses choose the class a packet joins (Admit, then
// Accept) and the class to serve next (Pop).
template <typename Classes>
class ClassQueueDisc : public QueueDisc {
 public:
  QueueSnapshot Snapshot() const override { return Total(); }

  // Pop-then-notify: class, pool and disc accounting exclude each packet
  // before its tracer callback, so Snapshot() is consistent mid-purge.
  std::uint32_t PurgeAll(Time now) override {
    std::uint32_t n = 0;
    for (ClassQueue& cls : classes_) {
      while (!cls.empty()) {
        std::unique_ptr<Packet> pkt = cls.Take();
        ++stats_.purged;
        ++n;
        if (tracer_ != nullptr) tracer_->OnPurge(*pkt, now, Total());
      }
    }
    return n;
  }

  std::size_t class_count() const override { return classes_.size(); }
  AqmPolicy* class_aqm(std::size_t cls) override {
    return classes_.at(cls).aqm();
  }
  QueueSnapshot ClassSnapshot(std::size_t cls) const {
    return classes_.at(cls).Snapshot();
  }
  // The static capacity, or the pool's total when drawing from a pool.
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 protected:
  // `capacity_bytes` bounds the whole disc when `pool` is null; on a pool,
  // the pool's admission decides instead.
  ClassQueueDisc(std::uint64_t capacity_bytes, BufferPolicy* pool)
      : capacity_bytes_(pool != nullptr ? pool->total_bytes()
                                        : capacity_bytes) {}

  QueueSnapshot Total() const {
    QueueSnapshot total;
    for (const ClassQueue& cls : classes_) {
      const QueueSnapshot s = cls.Snapshot();
      total.packets += s.packets;
      total.bytes += s.bytes;
    }
    return total;
  }

  // Buffer admission: a reservation against the class's pool queue, or the
  // disc-wide static capacity. A refusal is an overflow drop.
  bool Admit(ClassQueue& cls, const Packet& pkt, Time now) {
    const bool fits =
        cls.pool_ != nullptr
            ? cls.pool_->TryReserve(cls.pool_queue_, pkt.size_bytes)
            : Total().bytes + pkt.size_bytes <= capacity_bytes_;
    if (!fits) {
      ++stats_.dropped_overflow;
      if (tracer_ != nullptr) tracer_->OnDrop(pkt, now, DropReason::kOverflow);
    }
    return fits;
  }

  // Enqueue-time AQM on an admitted packet, then the append. Returns false
  // if the AQM vetoed the packet (its reservation is released).
  bool Accept(ClassQueue& cls, std::unique_ptr<Packet>&& pkt, Time now) {
    const bool was_ce = pkt->IsCeMarked();
    if (cls.aqm_ != nullptr &&
        !cls.aqm_->AllowEnqueue(*pkt, cls.Snapshot(), now)) {
      ++stats_.dropped_aqm;
      cls.Release(pkt->size_bytes);
      if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kAqm);
      return false;
    }
    CountMark(*pkt, was_ce, now);
    pkt->enqueue_time = now;
    ++cls.packets_;
    cls.bytes_ += pkt->size_bytes;
    cls.ring_.push_back(std::move(pkt));
    ++stats_.enqueued;
    if (tracer_ != nullptr) {
      tracer_->OnEnqueue(*cls.ring_.back(), now, Total());
    }
    return true;
  }

  // Dequeues `cls`'s head packet (the class must be non-empty) and runs the
  // class AQM's sojourn hook on it.
  std::unique_ptr<Packet> Pop(ClassQueue& cls, Time now) {
    std::unique_ptr<Packet> pkt = cls.Take();
    ++stats_.dequeued;
    const Time sojourn = now - pkt->enqueue_time;
    if (tracer_ != nullptr) tracer_->OnDequeue(*pkt, now, Total(), sojourn);
    if (cls.aqm_ != nullptr) {
      const bool was_ce = pkt->IsCeMarked();
      cls.aqm_->OnDequeue(*pkt, cls.Snapshot(), now, sojourn);
      CountMark(*pkt, was_ce, now);
    }
    return pkt;
  }

  // Counts and traces a CE mark applied since `was_ce` was sampled.
  void CountMark(const Packet& pkt, bool was_ce, Time now) {
    if (!was_ce && pkt.IsCeMarked()) {
      ++stats_.ce_marked;
      if (tracer_ != nullptr) tracer_->OnMark(pkt, now);
    }
  }

  Classes classes_;

 private:
  std::uint64_t capacity_bytes_;
};

// A scheduler over several classes of type `Class` (a ClassQueue, plus any
// per-class scheduling state). A classifier maps each packet to its class;
// the default uses Packet::traffic_class, clamped to the class count. Class
// i registers pool priority i, so a per-priority DT alpha maps directly onto
// service classes. Enqueue needs no scheduler code: a subclass implements
// Dequeue, i.e. which class to pop.
template <typename Class>
class MultiClassDisc : public ClassQueueDisc<std::vector<Class>> {
 public:
  using Classifier = std::function<std::size_t(const Packet&)>;

  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override {
    Class& cls = this->classes_[Classify(*pkt)];
    return this->Admit(cls, *pkt, now) &&
           this->Accept(cls, std::move(pkt), now);
  }

 protected:
  // Takes each config's `aqm`; class i gets configs[i].
  template <typename Config>
  MultiClassDisc(std::uint64_t capacity_bytes, std::vector<Config>& configs,
                 BufferPolicy* pool, Classifier classifier)
      : ClassQueueDisc<std::vector<Class>>(capacity_bytes, pool),
        classifier_(std::move(classifier)) {
    assert(!configs.empty());
    this->classes_ = std::vector<Class>(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      this->classes_[i].Attach(std::move(configs[i].aqm), pool,
                               static_cast<std::uint8_t>(i));
    }
  }

  std::size_t Classify(const Packet& pkt) const {
    const std::size_t idx =
        classifier_ ? classifier_(pkt)
                    : std::min<std::size_t>(pkt.traffic_class,
                                            this->classes_.size() - 1);
    assert(idx < this->classes_.size());
    return idx;
  }

 private:
  Classifier classifier_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_CLASS_QUEUE_H_

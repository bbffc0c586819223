// InFlightQueue: packets in transit toward one delivery callback, each
// released after its own delay.
//
// Every delayed packet in the datapath waits here: EgressPort's wire
// (propagation delay), DelayLine stages (netem-like extra delay) and
// Host's extra egress delay. Entries are POD records (deliver_at, order,
// owned Packet*, corrupt) kept (deliver_at, order)-sorted in a power-of-two
// ring, as PacketRing keeps a disc's backlog, and drained by a single
// pinned event armed for the front, so delivery costs O(1) per packet and
// builds no closure. The order stamp is reserved at push time — where the
// legacy scheme scheduled its per-packet event — so deliveries interleave
// with every other same-timestamp event exactly as one event per packet
// would. With LegacyPerPacketEvents() on (net/event_mode.h), Push schedules
// that one closure per packet instead; the parity tests compare the two.
//
// The delay may change between pushes (a SetPropagationDelay shortening, a
// stochastic sampler, a host delay change): a later packet with a shorter
// delay overtakes earlier ones, as on a real rerouted link.
#ifndef ECNSHARP_NET_IN_FLIGHT_QUEUE_H_
#define ECNSHARP_NET_IN_FLIGHT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/event_mode.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/unique_function.h"

namespace ecnsharp {

class InFlightQueue {
 public:
  // Receives each packet at its delivery time with its corruption verdict
  // (set only by EgressPort's wire, which drops corrupted frames on arrival).
  using Deliver = UniqueFunction<void(std::unique_ptr<Packet>, bool)>;

  InFlightQueue(Simulator& sim, Deliver deliver)
      : sim_(sim),
        deliver_(std::move(deliver)),
        event_(sim_.CreatePinned([this] { DeliverFront(); })) {}
  // Packets still in flight are freed (back to the PacketPool).
  ~InFlightQueue() {
    sim_.DestroyPinned(event_);
    while (head_ != tail_) delete slots_[head_++ & mask_].pkt;
  }

  InFlightQueue(const InFlightQueue&) = delete;
  InFlightQueue& operator=(const InFlightQueue&) = delete;

  // Delivers `pkt` (with `corrupt`) `delay` from now.
  void Push(Time delay, std::unique_ptr<Packet> pkt, bool corrupt = false) {
    if (LegacyPerPacketEvents()) {
      sim_.Schedule(delay, [this, pkt = std::move(pkt), corrupt]() mutable {
        deliver_(std::move(pkt), corrupt);
      });
      return;
    }
    if (tail_ - head_ == slots_.size()) Grow();
    const Entry entry{sim_.Now() + delay, sim_.ReserveOrder(), pkt.release(),
                      corrupt};
    // Sorted insert from the back: with a fixed delay and a monotone clock
    // this appends; only a shorter delay walks past later deliveries. The
    // fresh stamp is the largest, so it goes after equal deliver_at times.
    std::uint64_t i = tail_++;
    for (; i != head_ && slots_[(i - 1) & mask_].deliver_at > entry.deliver_at;
         --i) {
      slots_[i & mask_] = slots_[(i - 1) & mask_];
    }
    slots_[i & mask_] = entry;
    if (i == head_) {
      sim_.CancelPinned(event_);
      ArmFront();
    }
  }

 private:
  struct Entry {
    Time deliver_at;
    std::uint64_t order;
    Packet* pkt;  // owned
    bool corrupt;
  };
  static constexpr std::size_t kInitialCapacity = 16;

  // The pinned event tracks the front entry's reserved (deliver_at, order).
  void ArmFront() {
    const Entry& front = slots_[head_ & mask_];
    sim_.SchedulePinnedAtOrdered(event_, front.deliver_at, front.order);
  }

  void DeliverFront() {
    const Entry entry = slots_[head_++ & mask_];
    if (head_ != tail_) ArmFront();
    deliver_(std::unique_ptr<Packet>(entry.pkt), entry.corrupt);
  }

  // Storage is allocated on the first push, then doubled when full.
  void Grow() {
    const std::size_t n = tail_ - head_;
    std::vector<Entry> bigger(n == 0 ? kInitialCapacity : 2 * n);
    for (std::size_t i = 0; i < n; ++i) bigger[i] = slots_[(head_ + i) & mask_];
    slots_.swap(bigger);
    mask_ = slots_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  Simulator& sim_;
  Deliver deliver_;
  std::vector<Entry> slots_;
  std::size_t mask_ = 0;
  // Free-running indices; masked on access. 64-bit, so wrap is a non-issue.
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  PinnedEventId event_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_IN_FLIGHT_QUEUE_H_

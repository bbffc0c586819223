// InFlightQueue: packets in transit toward one delivery callback, each
// released after its own delay.
//
// Every delayed packet in the datapath waits here: EgressPort's wire
// (propagation delay), DelayLine stages (netem-like extra delay) and
// Host's extra egress delay. Entries sit in one (deliver_at, order)-sorted
// deque drained by a single pinned event armed for the front, so delivery
// costs O(1) per packet and builds no closure. The order stamp is reserved
// at push time — where the legacy scheme scheduled its per-packet event —
// so deliveries interleave with every other same-timestamp event exactly as
// one event per packet would. With LegacyPerPacketEvents() on
// (net/event_mode.h), Push schedules that one closure per packet instead;
// the parity tests compare the two.
//
// The delay may change between pushes (a SetPropagationDelay shortening, a
// stochastic sampler, a host delay change): a later packet with a shorter
// delay overtakes earlier ones, as on a real rerouted link.
#ifndef ECNSHARP_NET_IN_FLIGHT_QUEUE_H_
#define ECNSHARP_NET_IN_FLIGHT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <utility>

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
  ~InFlightQueue() { sim_.DestroyPinned(event_); }

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
    Entry entry{sim_.Now() + delay, sim_.ReserveOrder(), std::move(pkt),
                corrupt};
    // Sorted insert from the back: with a fixed delay and a monotone clock
    // this appends; only a shorter delay walks past later deliveries. The
    // fresh stamp is the largest, so it goes after equal deliver_at times.
    auto it = queue_.end();
    while (it != queue_.begin() &&
           std::prev(it)->deliver_at > entry.deliver_at) {
      --it;
    }
    const bool new_front = it == queue_.begin();
    queue_.insert(it, std::move(entry));
    if (new_front) {
      sim_.CancelPinned(event_);
      ArmFront();
    }
  }

 private:
  struct Entry {
    Time deliver_at;
    std::uint64_t order;
    std::unique_ptr<Packet> pkt;
    bool corrupt;
  };

  // The pinned event tracks the front entry's reserved (deliver_at, order).
  void ArmFront() {
    sim_.SchedulePinnedAtOrdered(event_, queue_.front().deliver_at,
                                 queue_.front().order);
  }

  void DeliverFront() {
    Entry entry = std::move(queue_.front());
    queue_.pop_front();
    if (!queue_.empty()) ArmFront();
    deliver_(std::move(entry.pkt), entry.corrupt);
  }

  Simulator& sim_;
  Deliver deliver_;
  std::deque<Entry> queue_;
  PinnedEventId event_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_IN_FLIGHT_QUEUE_H_

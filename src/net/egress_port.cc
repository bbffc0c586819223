#include "net/egress_port.h"

#include <cassert>
#include <utility>

#include "net/event_mode.h"

namespace ecnsharp {

EgressPort::EgressPort(Simulator& sim, DataRate rate, Time propagation_delay,
                       std::unique_ptr<QueueDisc> disc)
    : sim_(sim),
      rate_(rate),
      propagation_delay_(propagation_delay),
      disc_(std::move(disc)),
      tx_event_(sim_.CreatePinned([this] { FinishTx(); })),
      wire_(sim_, [this](std::unique_ptr<Packet> pkt, bool corrupt) {
        Deliver(std::move(pkt), corrupt);
      }) {
  assert(disc_ != nullptr);
}

EgressPort::~EgressPort() { sim_.DestroyPinned(tx_event_); }

void EgressPort::Enqueue(std::unique_ptr<Packet> pkt) {
  if (!link_up_) {
    counters_.dropped_link_down++;
    if (tracer_ != nullptr) {
      tracer_->OnDrop(*pkt, sim_.Now(), DropReason::kLinkDown);
    }
    return;
  }
  disc_->Enqueue(std::move(pkt), sim_.Now());
  MaybeStartTx();
}

void EgressPort::LinkDown(bool drop_queued) {
  // No early-out when the link is already down: a second LinkDown with
  // drop_queued=true must still purge whatever backlog accumulated, so the
  // tracer sees the purge events (a drain-preserving LinkDown followed by a
  // purging one used to be a silent no-op).
  //
  // The packet currently being serialized (busy_) was already committed to
  // the wire: its tx-completion event stays armed, it finishes at the old
  // rate, and it still arrives at the peer.
  link_up_ = false;
  if (drop_queued) disc_->PurgeAll(sim_.Now());
}

void EgressPort::LinkUp() {
  if (link_up_) return;
  link_up_ = true;
  MaybeStartTx();
}

void EgressPort::MaybeStartTx() {
  if (busy_ || !link_up_) return;
  while (true) {
    in_flight_ = disc_->Dequeue(sim_.Now());
    if (in_flight_ == nullptr) return;
    // One fault verdict per packet, drawn as it reaches the transmitter.
    // Injected loss hits before serialization — the packet never makes it
    // onto the wire and consumes no link bandwidth, so try the next one.
    // Corruption is remembered and applied at delivery: the frame occupies
    // the link for its full serialization time but fails its CRC at the far
    // end.
    in_flight_corrupt_ = false;
    if (fault_ != nullptr) {
      const auto verdict = fault_->Decide();
      if (verdict == LinkFaultInjector::Verdict::kDrop) {
        counters_.dropped_fault++;
        if (tracer_ != nullptr) {
          tracer_->OnDrop(*in_flight_, sim_.Now(), DropReason::kFaultLoss);
        }
        in_flight_.reset();
        continue;
      }
      in_flight_corrupt_ = verdict == LinkFaultInjector::Verdict::kCorrupt;
    }
    break;
  }
  busy_ = true;
  const Time tx = rate_.TransmissionTime(in_flight_->size_bytes);
  if (LegacyPerPacketEvents()) {
    sim_.Schedule(tx, [this] { FinishTx(); });
  } else {
    sim_.SchedulePinnedAt(tx_event_, sim_.Now() + tx);
  }
}

void EgressPort::FinishTx() {
  assert(busy_ && in_flight_ != nullptr && peer_ != nullptr);
  counters_.tx_packets++;
  counters_.tx_bytes += in_flight_->size_bytes;
  if (in_flight_corrupt_) counters_.corrupted++;
  if (tracer_ != nullptr) tracer_->OnTransmit(*in_flight_, sim_.Now());
  // Hand the packet to the wire: it arrives at the peer after the
  // propagation delay.
  wire_.Push(propagation_delay_, std::move(in_flight_), in_flight_corrupt_);
  busy_ = false;
  MaybeStartTx();
}

void EgressPort::Deliver(std::unique_ptr<Packet> pkt, bool corrupt) {
  if (!corrupt) {
    peer_->HandlePacket(std::move(pkt));
  } else if (tracer_ != nullptr) {
    tracer_->OnDrop(*pkt, sim_.Now(), DropReason::kCorrupt);
  }
}

}  // namespace ecnsharp

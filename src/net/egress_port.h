// Egress port: the transmit side of a point-to-point link.
//
// A port serializes packets at a fixed rate, then delivers them to the peer
// sink after the link's propagation delay. Each direction of a physical link
// is one EgressPort owned by the sending node; there is no separate Link
// object. The port owns its QueueDisc, which in turn owns queued packets.
//
// Rate, propagation delay, and administrative link state are mutable at
// event time (src/dynamics/ scripts churn them mid-run). The mid-flight
// semantics, pinned by tests:
//  * SetRate applies from the next serialization on — the packet currently
//    being serialized finishes its remaining bits at the old rate.
//  * SetPropagationDelay applies from the next transmit completion on;
//    packets already on the wire keep their departure-time delay (so a
//    shortening can reorder deliveries, as on a real rerouted link).
//  * LinkDown lets the packet currently being serialized complete at the old
//    rate and still arrive; only queued/arriving packets are affected.
//
// Event usage (the burst-drain scheme): a back-to-back train is driven by
// one persistent pinned tx-completion event re-armed per serialization, and
// the wire is an InFlightQueue (net/in_flight_queue.h) whose order stamps
// are reserved at transmit time — so draining a train costs O(1) per packet
// with zero closure allocations. net/event_mode.h switches back to the
// legacy one-closure-per-packet scheme; both interleave identically.
#ifndef ECNSHARP_NET_EGRESS_PORT_H_
#define ECNSHARP_NET_EGRESS_PORT_H_

#include <cstdint>
#include <memory>

#include "net/in_flight_queue.h"
#include "net/link_fault.h"
#include "net/packet.h"
#include "net/packet_tracer.h"
#include "net/queue_disc.h"
#include "sim/data_rate.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

struct PortCounters {
  std::uint64_t tx_packets = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t dropped_link_down = 0;  // arrived while the link was down
  std::uint64_t dropped_fault = 0;      // injected loss (pre-serialization)
  // Injected corruption, counted when the frame fails its CRC at the far
  // end (a corrupted frame still on the wire is not counted yet).
  std::uint64_t corrupted = 0;
};

// Everything one port counts, as of one instant: its queue disc's stats and
// the port's own counters. Trace and sketch sites hold a copy taken when a
// session's run returns, so their exports read the owner's counts rather
// than recounting packets.
struct PortCounts {
  QueueDiscStats disc;
  PortCounters port;

  // Packets this port lost for `reason`.
  std::uint64_t drops(DropReason reason) const;
  // Losses over every DropReason, purges included.
  std::uint64_t dropped_total() const;
};

class EgressPort {
 public:
  EgressPort(Simulator& sim, DataRate rate, Time propagation_delay,
             std::unique_ptr<QueueDisc> disc);
  ~EgressPort();

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  // Sets the receiving end of the link. Must be called before any Enqueue.
  void ConnectTo(PacketSink& peer) { peer_ = &peer; }

  // Hands a packet to the queue disc and kicks transmission if idle. While
  // the link is down the packet is dropped instead (no carrier).
  void Enqueue(std::unique_ptr<Packet> pkt);

  QueueDisc& queue_disc() { return *disc_; }
  const QueueDisc& queue_disc() const { return *disc_; }
  DataRate rate() const { return rate_; }
  Time propagation_delay() const { return propagation_delay_; }
  const PortCounters& counters() const { return counters_; }
  PortCounts counts() const { return PortCounts{disc_->stats(), counters_}; }

  // --- Runtime reconfiguration (dynamics hooks) ---------------------------

  // Applies from the next packet serialization on.
  void SetRate(DataRate rate) { rate_ = rate; }
  // Applies from the next transmit completion on. Shortening the delay can
  // reorder against packets already in flight — as on a real rerouted link.
  void SetPropagationDelay(Time delay) { propagation_delay_ = delay; }

  // Takes the link down. With `drop_queued` the disc's backlog is purged
  // (counted in the disc's stats().purged); otherwise queued packets survive
  // the outage and drain on LinkUp. The packet currently being serialized
  // (if any) was already committed to the wire and still arrives.
  void LinkDown(bool drop_queued);
  // Restores the link and restarts transmission from the surviving backlog.
  void LinkUp();
  bool link_up() const { return link_up_; }

  // Installs seeded random loss/corruption (non-owning; null disables).
  void SetFaultInjector(LinkFaultInjector* injector) { fault_ = injector; }
  LinkFaultInjector* fault_injector() { return fault_; }

  // Annotates the base RTT of the longest path through this port when it
  // differs from the fabric's host-to-host RTTs (an inter-DC border link).
  // Zero (default) means "no annotation". The sketch telemetry seeds its
  // base-RTT histogram from the hint so sketch-driven ECN# re-estimation
  // covers the WAN paths even before transport RTT samples arrive.
  void set_base_rtt_hint(Time hint) { base_rtt_hint_ = hint; }
  Time base_rtt_hint() const { return base_rtt_hint_; }

  // Attaches a per-packet observer (non-owning; at most two: the flight
  // recorder and the sketch telemetry). Also attached to the queue disc so
  // drop/mark events on this port are captured.
  void AddTracer(PacketTracer* tracer) {
    tracers_.Add(tracer);
    disc_->AddTracer(tracer);
  }

 private:
  void MaybeStartTx();
  void FinishTx();
  // Wire arrival at the peer; a corrupted frame fails its CRC there.
  void Deliver(std::unique_ptr<Packet> pkt, bool corrupt);

  Simulator& sim_;
  DataRate rate_;
  Time propagation_delay_;
  std::unique_ptr<QueueDisc> disc_;
  PacketSink* peer_ = nullptr;
  PacketTracerList tracers_;
  LinkFaultInjector* fault_ = nullptr;
  std::unique_ptr<Packet> in_flight_;
  bool in_flight_corrupt_ = false;
  bool busy_ = false;
  bool link_up_ = true;
  Time base_rtt_hint_ = Time::Zero();
  PortCounters counters_;
  PinnedEventId tx_event_;
  InFlightQueue wire_;
};

// Adapter presenting an EgressPort as a PacketSink, so ports can terminate
// a chain of PacketSink stages (e.g. DelayLines).
class PortSink : public PacketSink {
 public:
  explicit PortSink(EgressPort& port) : port_(port) {}
  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    port_.Enqueue(std::move(pkt));
  }

 private:
  EgressPort& port_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_EGRESS_PORT_H_

// End-host node.
//
// A host has one NIC (an EgressPort toward its switch or peer), an optional
// netem-style extra egress delay that inflates the base RTT of all flows it
// originates (§2.3), and an upper-layer protocol handler (normally a
// TcpStack, registered by the transport library) that receives every packet
// addressed to this host.
#ifndef ECNSHARP_NET_HOST_H_
#define ECNSHARP_NET_HOST_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/egress_port.h"
#include "net/in_flight_queue.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class Host : public PacketSink {
 public:
  Host(Simulator& sim, std::uint32_t address) : sim_(sim), address_(address) {}

  std::uint32_t address() const { return address_; }
  Simulator& sim() { return sim_; }

  // Installs the NIC. The host owns the port.
  EgressPort& AttachNic(std::unique_ptr<EgressPort> port) {
    nic_ = std::move(port);
    return *nic_;
  }
  EgressPort& nic() {
    assert(nic_ != nullptr);
    return *nic_;
  }
  const EgressPort& nic() const {
    assert(nic_ != nullptr);
    return *nic_;
  }

  // Extra one-way delay applied to every packet this host transmits
  // (emulates netem at the sender; inflates this host's flows' base RTT by
  // exactly this amount since only the forward path is delayed). A change
  // applies to packets sent after it; a shorter delay lets them overtake
  // packets still held.
  void set_extra_egress_delay(Time delay) { extra_egress_delay_ = delay; }
  Time extra_egress_delay() const { return extra_egress_delay_; }

  // Entry point for the transport layer: applies the extra egress delay and
  // hands the packet to the NIC queue.
  void SendPacket(std::unique_ptr<Packet> pkt) {
    if (extra_egress_delay_.IsZero()) {
      nic().Enqueue(std::move(pkt));
      return;
    }
    if (netem_ == nullptr) {
      netem_ = std::make_unique<InFlightQueue>(
          sim_, [this](std::unique_ptr<Packet> held, bool) {
            nic().Enqueue(std::move(held));
          });
    }
    netem_->Push(extra_egress_delay_, std::move(pkt));
  }

  // Protocol handler receiving all packets delivered to this host.
  void SetProtocolHandler(PacketSink& handler) { upper_ = &handler; }

  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    if (upper_ != nullptr) upper_->HandlePacket(std::move(pkt));
    // Without a handler the packet is silently consumed (sink host).
  }

 private:
  Simulator& sim_;
  std::uint32_t address_;
  std::unique_ptr<EgressPort> nic_;
  Time extra_egress_delay_ = Time::Zero();
  // Packets held by the extra egress delay, built on the first delayed send
  // so that hosts which never delay allocate nothing.
  std::unique_ptr<InFlightQueue> netem_;
  PacketSink* upper_ = nullptr;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_HOST_H_

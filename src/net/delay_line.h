// DelayLine: a netem-like stage that forwards packets to the next sink after
// an extra delay.
//
// The paper emulates RTT variation by adding sender-side delay with Linux
// netem (§2.3); a DelayLine with a fixed delay per host reproduces exactly
// that. With a stochastic sampler it models a variable-latency processing
// component (SLB, hypervisor, loaded network stack — §2.2).
//
// In-flight packets wait in an InFlightQueue (net/in_flight_queue.h): one
// pinned event per stage, order stamps reserved at arrival.
#ifndef ECNSHARP_NET_DELAY_LINE_H_
#define ECNSHARP_NET_DELAY_LINE_H_

#include <functional>
#include <memory>
#include <utility>

#include "net/in_flight_queue.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class DelayLine : public PacketSink {
 public:
  // Fixed extra delay.
  DelayLine(Simulator& sim, PacketSink& next, Time delay)
      : DelayLine(sim, next, std::function<Time()>([delay] { return delay; })) {}

  // Stochastic extra delay: `sampler` is invoked once per packet. Note that
  // a stochastic stage can reorder packets, just like a real variable-latency
  // component.
  DelayLine(Simulator& sim, PacketSink& next, std::function<Time()> sampler)
      : sampler_(std::move(sampler)),
        in_flight_(sim, [&next](std::unique_ptr<Packet> pkt, bool) {
          next.HandlePacket(std::move(pkt));
        }) {}

  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    in_flight_.Push(sampler_(), std::move(pkt));
  }

  // Runtime reconfiguration (dynamics scripts shift the delay distribution
  // mid-run). Applies to packets that arrive after the call; packets already
  // in flight keep the delay they were scheduled with.
  void SetDelay(Time delay) {
    sampler_ = [delay] { return delay; };
  }
  void SetSampler(std::function<Time()> sampler) {
    sampler_ = std::move(sampler);
  }

 private:
  std::function<Time()> sampler_;
  InFlightQueue in_flight_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_DELAY_LINE_H_

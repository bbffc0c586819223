// Observer interface for transport-layer state changes, mirroring what
// PacketTracer is for ports. Header-only so transport/ can emit into it
// without linking against the trace library; TraceRecorder implements it.
#ifndef ECNSHARP_TRACE_TRANSPORT_TRACER_H_
#define ECNSHARP_TRACE_TRANSPORT_TRACER_H_

#include <cstdint>

#include "net/packet.h"
#include "sim/observer_list.h"
#include "sim/time.h"

namespace ecnsharp {

class TransportTracer {
 public:
  virtual ~TransportTracer() = default;

  // Congestion window or slow-start threshold changed (bytes).
  virtual void OnCwnd(const FlowKey& flow, Time at, double cwnd_bytes,
                      double ssthresh_bytes) {
    (void)flow;
    (void)at;
    (void)cwnd_bytes;
    (void)ssthresh_bytes;
  }

  // A new RTT measurement was folded into the estimator.
  virtual void OnRttSample(const FlowKey& flow, Time at, Time sample) {
    (void)flow;
    (void)at;
    (void)sample;
  }

  // A segment was retransmitted (fast retransmit or RTO recovery).
  virtual void OnRetransmit(const FlowKey& flow, Time at, std::uint64_t seq) {
    (void)flow;
    (void)at;
    (void)seq;
  }

  // The retransmission timer expired; `consecutive` counts back-to-back
  // expiries including this one.
  virtual void OnRto(const FlowKey& flow, Time at, std::uint32_t consecutive) {
    (void)flow;
    (void)at;
    (void)consecutive;
  }
};

// The transport tracers attached to one host stack; its senders notify
// through the stack's list.
using TransportTracerList = ObserverList<TransportTracer>;

}  // namespace ecnsharp

#endif  // ECNSHARP_TRACE_TRANSPORT_TRACER_H_

// Per-layer cost replays for the traced benchmark run.
//
// Each replay drives one layer's public functions with the shape of the
// workload that was just simulated (pending-set size, queue depth, pool
// occupancy, flow-table size, flow-key population) and returns the wall
// nanoseconds per operation. Multiplied by the operation counts read from the
// same run, the replays estimate how much of the run phase each layer
// explains. They run after the simulated network has been torn down, so they
// never touch its state.
#ifndef ECNSHARP_PERFBENCH_REPLAYS_H_
#define ECNSHARP_PERFBENCH_REPLAYS_H_

#include <cstdint>
#include <vector>

#include "harness/schemes.h"
#include "net/packet.h"
#include "net/switch_node.h"
#include "sim/data_rate.h"
#include "sim/time.h"

namespace perfbench {

// Event engine: `pending` self-rescheduling actors. A `pinned_share` of them
// are pinned events that alternate between `tx_delay` and `wire_delay` (the
// port tx/wire pattern); the rest are one-shot closures with delays spread
// uniformly over [0, `other_max_delay`] (timers, host delay stages, flow
// arrivals).
struct EngineShape {
  std::size_t pending = 64;
  double pinned_share = 0.5;
  ecnsharp::Time tx_delay = ecnsharp::Time::Nanoseconds(1200);
  ecnsharp::Time wire_delay = ecnsharp::Time::FromMicroseconds(10);
  ecnsharp::Time other_max_delay = ecnsharp::Time::FromMicroseconds(500);
};
double EngineNsPerEvent(const EngineShape& shape, std::uint64_t events);

// Switch forwarding: SwitchNode::HandlePacket on `switches` (a copy of the
// workload's topology whose egress discs discard), picking the switch of
// each packet in proportion to `weights` and the flow from `flows` (both
// directions). The egress enqueue into the discarding disc is included.
double ForwardNsPerPacket(const std::vector<ecnsharp::SwitchNode*>& switches,
                          const std::vector<double>& weights,
                          const std::vector<ecnsharp::FlowKey>& flows,
                          std::uint64_t packets);

// Port path: trains of `train` full-size packets through one EgressPort
// (plain FIFO, no AQM) at `rate`/`delay` into a counting sink, drained by a
// Simulator. Returns ns per packet for the whole enqueue -> tx -> wire ->
// deliver path and, in *events_per_packet, the engine events each packet
// cost.
double PortNsPerPacket(ecnsharp::DataRate rate, ecnsharp::Time delay,
                       std::size_t train, std::uint64_t packets,
                       double* events_per_packet);

// Queue disc: FIFO running `scheme` held at `depth` packets, one enqueue plus
// one dequeue per packet with the clock advancing one serialization time, so
// sojourn-based AQMs see the workload's queueing delay.
double DiscNsPerPacket(ecnsharp::Scheme scheme,
                       const ecnsharp::SchemeParams& params, std::size_t depth,
                       std::uint64_t packets);

// Shared buffer: Dynamic-Threshold TryReserve + Release pairs over a pool of
// `queues` queues pre-filled to `occupancy` (0..1) of its bytes.
double AdmissionNsPerPacket(std::size_t queues, double occupancy,
                            std::uint64_t packets);

// Transport: ACKs fed to one TcpStack whose flow table holds `flows` active
// senders, one MSS acknowledged per ACK, `ece_share` of them echoing CE.
// The host NIC is down, so the segments each ACK releases cost only their
// construction and the drop.
double AckNsPerAck(std::size_t flows, double ece_share, std::uint64_t acks);

// Sketch telemetry: the enqueue, dequeue and transmit taps of `sites` port
// sites fed packets of the `flows` population.
double SketchNsPerPacket(std::size_t sites,
                         const std::vector<ecnsharp::FlowKey>& flows,
                         std::uint64_t packets);

}  // namespace perfbench

#endif  // ECNSHARP_PERFBENCH_REPLAYS_H_

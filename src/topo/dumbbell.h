// Dumbbell (N senders -> 1 switch -> 1 receiver) — the paper's testbed shape
// (§5.2): 8 servers on one Tofino switch, 7 senders and 1 receiver, with the
// AQM under test on the bottleneck egress port toward the receiver.
#ifndef ECNSHARP_TOPO_DUMBBELL_H_
#define ECNSHARP_TOPO_DUMBBELL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/policy_spec.h"
#include "net/host.h"
#include "net/switch_node.h"
#include "sim/data_rate.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {

struct DumbbellConfig {
  std::size_t senders = 7;
  DataRate rate = DataRate::GigabitsPerSecond(10);
  // Nominal base RTT without netem extras; per-link propagation delay is
  // base_rtt/4 (two hops each way), so the actual base RTT is this plus
  // ~2.5 us of serialization and forwarding.
  Time base_rtt = Time::FromMicroseconds(70);
  // Switch egress buffer per port.
  std::uint64_t buffer_bytes = 600ull * kFullPacketBytes;
  // Host NIC queue (never the intended bottleneck).
  std::uint64_t host_buffer_bytes = 64ull * 1024 * 1024;
  TcpConfig tcp;
  // Optional shared-buffer policy for the switch: all switch egress ports
  // (senders' ACK path included) draw from one pool instead of static
  // per-port buffers. kNone keeps the legacy static split byte-identically.
  BufferPolicyConfig buffer_policy;
};

class Dumbbell : public Topology {
 public:
  // `make_disc` builds the disc installed on the switch port toward the
  // receiver (the queue every figure of the paper instruments). The ports
  // toward senders (ACK path) are plain drop-tail.
  Dumbbell(Simulator& sim, const DumbbellConfig& config,
           const DiscFactory& make_disc);

  std::size_t sender_count() const { return config_.senders; }
  Host& sender_host(std::size_t i) { return *hosts_.at(i); }
  TcpStack& sender_stack(std::size_t i) { return *stacks_.at(i); }
  Host& receiver_host() { return *hosts_.back(); }
  TcpStack& receiver_stack() { return *stacks_.back(); }
  std::uint32_t receiver_address() const;
  SwitchNode& switch_node() { return *switch_; }
  EgressPort& bottleneck_port() { return *bottleneck_port_; }

  // Installs per-sender netem extras (inflating each sender's base RTT).
  void SetSenderExtraDelays(const std::vector<Time>& extras);

  // --- Topology interface: the senders are the flow-originating hosts. ---
  DataRate ReferenceCapacity() const override { return config_.rate; }
  // Uniform sender, always toward the receiver (one draw).
  std::pair<TcpStack*, std::uint32_t> SampleFlowPair(Rng& rng) override;
  std::uint32_t IncastTarget() const override { return receiver_address(); }
  TcpStack& IncastSender(std::size_t k) override {
    return sender_stack(k % config_.senders);
  }
  // Target ids: -1 = bottleneck (receiver-facing switch port),
  // 0..senders-1 = that sender's NIC; nothing past the senders.
  EgressPort* ResolvePort(int target) override;

 private:
  Simulator& sim_;
  DumbbellConfig config_;
  std::unique_ptr<BufferPolicy> pool_;  // null when no policy configured
  std::unique_ptr<SwitchNode> switch_;
  std::vector<std::unique_ptr<Host>> hosts_;   // senders..., receiver
  std::vector<std::unique_ptr<TcpStack>> stacks_;
  EgressPort* bottleneck_port_ = nullptr;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_DUMBBELL_H_

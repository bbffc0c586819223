// Per-host transport multiplexer.
//
// The stack registers itself as the host's protocol handler, dispatches
// arriving data packets to per-flow receivers (created on first segment,
// like a listening socket) and ACKs to the matching senders. StartFlow
// allocates a fresh source port and begins a bulk transfer.
#ifndef ECNSHARP_TRANSPORT_TCP_STACK_H_
#define ECNSHARP_TRANSPORT_TCP_STACK_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "net/host.h"
#include "net/packet.h"
#include "transport/tcp_config.h"
#include "transport/tcp_receiver.h"
#include "transport/tcp_sender.h"

namespace ecnsharp {

class TcpStack : public PacketSink {
 public:
  TcpStack(Host& host, const TcpConfig& config);

  // Starts a `size_bytes` transfer to host `dst` now. The callback fires on
  // completion (after the last byte is cumulatively acknowledged). `cc`
  // overrides the stack's default controller for this flow (mixed-CC runs
  // pass CcKind::kCubic for the seeded cross-traffic fraction).
  TcpSender& StartFlow(std::uint32_t dst, std::uint64_t size_bytes,
                       TcpSender::CompletionCallback on_complete,
                       std::uint8_t traffic_class = 0,
                       std::optional<CcKind> cc = std::nullopt);

  void HandlePacket(std::unique_ptr<Packet> pkt) override;

  Host& host() { return host_; }
  const TcpConfig& config() const { return config_; }
  std::size_t active_senders() const;

  // Flows this stack ever started, completed ones included.
  std::size_t flow_count() const { return flows_started_; }
  // perfbench-only: it reads flow_hot_state().flow_count(). Delete once
  // perfbench calls flow_count() directly.
  const TcpStack& flow_hot_state() const { return *this; }

  // Attaches a transport observer (non-owning; at most two: the flight
  // recorder and the sketch telemetry). Every sender of this stack reports
  // to the stack's list, so attach before the first flow starts for the
  // initial windows to be recorded.
  void AddTransportTracer(TransportTracer* tracer) {
    transport_tracers_.Add(tracer);
  }

 private:
  Host& host_;
  TcpConfig config_;
  std::size_t flows_started_ = 0;
  TransportTracerList transport_tracers_;
  std::uint16_t next_port_ = 1;
  std::unordered_map<FlowKey, std::unique_ptr<TcpSender>, FlowKeyHash>
      senders_;
  std::unordered_map<FlowKey, std::unique_ptr<TcpReceiver>, FlowKeyHash>
      receivers_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRANSPORT_TCP_STACK_H_

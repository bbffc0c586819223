// End-to-end TCP behaviour over a two-host link and through a switch:
// completion, throughput, loss recovery, RTO, ECN reaction, DCTCP alpha.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "aqm/dctcp_red.h"
#include "net/host.h"
#include "net/switch_node.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {
namespace {

constexpr DataRate kRate = DataRate::GigabitsPerSecond(10);
constexpr Time kDelay = Time::Microseconds(10);

// Two hosts connected through one switch; the switch egress toward the
// receiver takes an optional AQM.
struct TwoHostNet {
  Simulator sim;
  std::unique_ptr<SwitchNode> sw;
  std::unique_ptr<Host> sender;
  std::unique_ptr<Host> receiver;
  std::unique_ptr<TcpStack> sender_stack;
  std::unique_ptr<TcpStack> receiver_stack;
  EgressPort* bottleneck = nullptr;

  explicit TwoHostNet(const TcpConfig& tcp,
                      std::unique_ptr<AqmPolicy> receiver_port_aqm = nullptr,
                      std::uint64_t buffer_bytes = 1ull << 26) {
    sw = std::make_unique<SwitchNode>(sim, "sw");
    sender = std::make_unique<Host>(sim, 0);
    receiver = std::make_unique<Host>(sim, 1);
    for (Host* h : {sender.get(), receiver.get()}) {
      // Host NICs run at 4x the bottleneck rate so a single sender can
      // congest the switch egress port (like a fast server behind a slower
      // fabric link).
      auto nic = std::make_unique<EgressPort>(
          sim, DataRate::GigabitsPerSecond(40), kDelay,
          std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
      nic->ConnectTo(*sw);
      h->AttachNic(std::move(nic));
      const bool to_receiver = (h == receiver.get());
      auto disc = std::make_unique<FifoQueueDisc>(
          buffer_bytes,
          to_receiver ? std::move(receiver_port_aqm) : nullptr);
      auto port = std::make_unique<EgressPort>(sim, kRate, kDelay,
                                               std::move(disc));
      port->ConnectTo(*h);
      EgressPort& ref = sw->AddPort(std::move(port));
      sw->AddRoute(h->address(), ref);
      if (to_receiver) bottleneck = &ref;
    }
    sender_stack = std::make_unique<TcpStack>(*sender, tcp);
    receiver_stack = std::make_unique<TcpStack>(*receiver, tcp);
  }
};

TEST(TcpTest, SingleSegmentFlowCompletes) {
  TwoHostNet net(TcpConfig{});
  std::optional<FlowRecord> done;
  net.sender_stack->StartFlow(1, 1000,
                              [&done](const FlowRecord& r) { done = r; });
  net.sim.Run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->size_bytes, 1000u);
  // One RTT-ish: ~2*(2*10us) + serialization.
  EXPECT_LT(done->Fct(), Time::Microseconds(60));
  EXPECT_EQ(done->timeouts, 0u);
}

TEST(TcpTest, BulkFlowReachesLineRate) {
  TcpConfig tcp;
  tcp.ecn_mode = EcnMode::kNone;
  TwoHostNet net(tcp);
  std::optional<FlowRecord> done;
  const std::uint64_t size = 50'000'000;  // 50 MB
  net.sender_stack->StartFlow(1, size,
                              [&done](const FlowRecord& r) { done = r; });
  net.sim.Run();
  ASSERT_TRUE(done.has_value());
  const double goodput_gbps =
      static_cast<double>(size) * 8.0 / done->Fct().ToSeconds() * 1e-9;
  // Goodput should be close to 10 Gbps * (1460/1500) ~ 9.73 Gbps.
  EXPECT_GT(goodput_gbps, 8.5);
  EXPECT_LE(goodput_gbps, 9.75);
  EXPECT_EQ(done->timeouts, 0u);
}

TEST(TcpTest, ManyFlowsAllComplete) {
  TwoHostNet net(TcpConfig{});
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    net.sender_stack->StartFlow(1, 10000 + i * 1000,
                                [&completed](const FlowRecord&) {
                                  ++completed;
                                });
  }
  net.sim.Run();
  EXPECT_EQ(completed, 50);
}

TEST(TcpTest, ReceiverGetsExactByteCount) {
  TwoHostNet net(TcpConfig{});
  bool done = false;
  net.sender_stack->StartFlow(1, 123457,
                              [&done](const FlowRecord&) { done = true; });
  net.sim.Run();
  EXPECT_TRUE(done);
}

TEST(TcpTest, RecoversFromLossViaFastRetransmit) {
  // A tiny switch buffer forces overflow drops while cwnd grows.
  TcpConfig tcp;
  tcp.ecn_mode = EcnMode::kNone;
  TwoHostNet net(tcp, nullptr, /*buffer_bytes=*/30'000);
  std::optional<FlowRecord> done;
  net.sender_stack->StartFlow(1, 5'000'000,
                              [&done](const FlowRecord& r) { done = r; });
  net.sim.RunUntil(Time::Seconds(10));
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(net.bottleneck->queue_disc().stats().dropped_overflow, 0u);
  EXPECT_GT(done->fast_retransmits, 0u);
}

TEST(TcpTest, RtoRecoversFromTotalLossWindow) {
  // Drop-everything period: disconnect by using a 1-packet buffer and a
  // large initial burst; timeouts must eventually repair the flow.
  TcpConfig tcp;
  tcp.ecn_mode = EcnMode::kNone;
  tcp.init_cwnd_segments = 64;
  TwoHostNet net(tcp, nullptr, /*buffer_bytes=*/4000);
  std::optional<FlowRecord> done;
  net.sender_stack->StartFlow(1, 500'000,
                              [&done](const FlowRecord& r) { done = r; });
  net.sim.RunUntil(Time::Seconds(30));
  ASSERT_TRUE(done.has_value());
  EXPECT_GT(done->timeouts + done->fast_retransmits, 0u);
}

TEST(TcpTest, EcnMarkingKeepsQueueNearThreshold) {
  // DCTCP against a 60 KB instantaneous threshold: the standing queue must
  // hover around the threshold, far below the buffer limit, with no drops.
  TcpConfig tcp;  // DCTCP by default
  TwoHostNet net(tcp, std::make_unique<DctcpRedAqm>(60'000));
  std::optional<FlowRecord> done;
  net.sender_stack->StartFlow(1, 30'000'000,
                              [&done](const FlowRecord& r) { done = r; });
  std::uint32_t max_queue = 0;
  // Sample the queue while the flow runs.
  for (int i = 0; i < 2000 && !done.has_value(); ++i) {
    net.sim.RunFor(Time::Microseconds(50));
    max_queue =
        std::max(max_queue, net.bottleneck->queue_disc().Snapshot().packets);
  }
  net.sim.Run();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(net.bottleneck->queue_disc().stats().dropped_overflow, 0u);
  EXPECT_GT(net.bottleneck->queue_disc().stats().ce_marked, 0u);
  // Queue stays bounded near the 41-packet threshold (some overshoot is
  // expected during slow start).
  EXPECT_LT(max_queue, 200u);
  EXPECT_EQ(done->timeouts, 0u);
}

TEST(TcpTest, DctcpAlphaConvergesUnderPersistentMarking) {
  TcpConfig tcp;
  TwoHostNet net(tcp, std::make_unique<DctcpRedAqm>(60'000));
  TcpSender& sender = net.sender_stack->StartFlow(1, 1ull << 30, nullptr);
  net.sim.RunUntil(Time::Milliseconds(200));
  // With steady marking at the threshold, alpha settles well below 1 but
  // above 0 (fraction of marked packets per window).
  EXPECT_GT(sender.dctcp_alpha(), 0.0);
  EXPECT_LT(sender.dctcp_alpha(), 0.9);
  EXPECT_GT(sender.bytes_acked(), 0u);
}

TEST(TcpTest, ClassicEcnHalvesOnMark) {
  TcpConfig tcp;
  tcp.ecn_mode = EcnMode::kClassic;
  TwoHostNet net(tcp, std::make_unique<DctcpRedAqm>(60'000));
  std::optional<FlowRecord> done;
  net.sender_stack->StartFlow(1, 20'000'000,
                              [&done](const FlowRecord& r) { done = r; });
  net.sim.RunUntil(Time::Seconds(10));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->timeouts, 0u);
  EXPECT_GT(net.bottleneck->queue_disc().stats().ce_marked, 0u);
}

TEST(TcpTest, DctcpOutperformsClassicEcnOnThroughputAtLowThreshold) {
  // With a shallow threshold, classic ECN's half-cut repeatedly empties the
  // queue and loses throughput; DCTCP's proportional cut keeps it busy.
  const auto run = [](EcnMode mode) {
    TcpConfig tcp;
    tcp.ecn_mode = mode;
    TwoHostNet net(tcp, std::make_unique<DctcpRedAqm>(30'000));
    std::optional<FlowRecord> done;
    net.sender_stack->StartFlow(1, 20'000'000,
                                [&done](const FlowRecord& r) { done = r; });
    net.sim.RunUntil(Time::Seconds(20));
    return done->Fct();
  };
  const Time dctcp = run(EcnMode::kDctcp);
  const Time classic = run(EcnMode::kClassic);
  EXPECT_LT(dctcp, classic);
}

TEST(TcpTest, FlowsWithDifferentRttsShareBottleneck) {
  TcpConfig tcp;
  TwoHostNet net(tcp, std::make_unique<DctcpRedAqm>(250'000));
  net.sender->set_extra_egress_delay(Time::Microseconds(100));
  int completed = 0;
  net.sender_stack->StartFlow(1, 2'000'000,
                              [&completed](const FlowRecord&) {
                                ++completed;
                              });
  net.sender_stack->StartFlow(1, 2'000'000,
                              [&completed](const FlowRecord&) {
                                ++completed;
                              });
  net.sim.RunUntil(Time::Seconds(10));
  EXPECT_EQ(completed, 2);
}

TEST(TcpStackTest, PortAllocationAvoidsCollisions) {
  TwoHostNet net(TcpConfig{});
  TcpSender& a = net.sender_stack->StartFlow(1, 1000, nullptr);
  TcpSender& b = net.sender_stack->StartFlow(1, 1000, nullptr);
  EXPECT_NE(a.flow().src_port, b.flow().src_port);
  net.sim.Run();
}

TEST(TcpStackTest, ActiveSenderCountTracksCompletion) {
  TwoHostNet net(TcpConfig{});
  net.sender_stack->StartFlow(1, 1000, nullptr);
  EXPECT_EQ(net.sender_stack->active_senders(), 1u);
  net.sim.Run();
  EXPECT_EQ(net.sender_stack->active_senders(), 0u);
}

TEST(TcpStackTest, FlowCountCountsEveryStartedFlow) {
  TwoHostNet net(TcpConfig{});
  int completed = 0;
  const auto done = [&](const FlowRecord&) { ++completed; };
  net.sender_stack->StartFlow(1, 20'000, done);
  net.sender_stack->StartFlow(1, 20'000, done);
  net.sender_stack->StartFlow(1, 20'000, done, 0, CcKind::kCubic);
  EXPECT_EQ(net.sender_stack->flow_count(), 3u);
  net.sim.Run();
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(net.sender_stack->active_senders(), 0u);
  EXPECT_EQ(net.sender_stack->flow_count(), 3u);
  EXPECT_EQ(net.receiver_stack->flow_count(), 0u);
}

}  // namespace
}  // namespace ecnsharp

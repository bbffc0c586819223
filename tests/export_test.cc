// Pacing and queue-length ECN# tests.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/ecn_sharp.h"
#include "net/host.h"
#include "net/switch_node.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {
namespace {

// ------------------------------ pacing -------------------------------------

class SinkWithTimes : public PacketSink {
 public:
  explicit SinkWithTimes(Simulator& sim) : sim_(sim) {}
  void HandlePacket(std::unique_ptr<Packet>) override {
    times_.push_back(sim_.Now());
  }
  const std::vector<Time>& times() const { return times_; }

 private:
  Simulator& sim_;
  std::vector<Time> times_;
};

TEST(PacingTest, SpacesInitialWindow) {
  Simulator sim;
  SinkWithTimes sink(sim);
  Host host(sim, 0);
  auto nic = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(100), Time::Zero(),
      std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
  nic->ConnectTo(sink);
  host.AttachNic(std::move(nic));

  TcpConfig config;
  config.pacing = true;
  config.initial_pacing_rate = DataRate::GigabitsPerSecond(10);
  config.init_cwnd_segments = 10;
  TcpSender sender(host, config, FlowKey{0, 1, 9, 80}, 20 * 1460, 0,
                   nullptr);
  sender.Start();
  sim.RunFor(Time::Microseconds(2));
  // At ~1.17 us per 1460B payload at 10G, only a couple of segments have
  // left — not the whole 10-segment window.
  EXPECT_LE(sink.times().size(), 3u);
  sim.RunFor(Time::Microseconds(20));
  EXPECT_GE(sink.times().size(), 9u);
  // Consecutive paced sends are spaced, not back-to-back.
  ASSERT_GE(sink.times().size(), 3u);
  EXPECT_GE(sink.times()[2] - sink.times()[1], Time::Nanoseconds(1000));
}

TEST(PacingTest, PacedFlowStillCompletes) {
  // Full stack round trip with pacing on.
  Simulator sim;
  SwitchNode sw(sim, "sw");
  Host a(sim, 0);
  Host b(sim, 1);
  for (Host* h : {&a, &b}) {
    auto nic = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(10), Time::Microseconds(5),
        std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
    nic->ConnectTo(sw);
    h->AttachNic(std::move(nic));
    auto port = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(10), Time::Microseconds(5),
        std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
    port->ConnectTo(*h);
    sw.AddRoute(h->address(), sw.AddPort(std::move(port)));
  }
  TcpConfig config;
  config.pacing = true;
  TcpStack stack_a(a, config);
  TcpStack stack_b(b, config);
  std::optional<FlowRecord> done;
  stack_a.StartFlow(1, 3'000'000,
                    [&done](const FlowRecord& r) { done = r; });
  sim.RunUntil(Time::Seconds(5));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->timeouts, 0u);
}

// ------------------------- queue-length ECN# -------------------------------

TEST(EcnSharpQlenTest, InstantaneousMarkOnQueueLength) {
  EcnSharpQlenConfig config;
  config.ins_target_bytes = 10'000;
  config.pst_target_bytes = 3'000;
  EcnSharpQlenAqm aqm(config);
  Packet pkt;
  pkt.size_bytes = 1500;
  pkt.ecn = EcnCodepoint::kEct0;
  EXPECT_TRUE(aqm.AllowEnqueue(pkt, QueueSnapshot{8, 12'000}, Time::Zero()));
  EXPECT_TRUE(pkt.IsCeMarked());
}

TEST(EcnSharpQlenTest, PersistentMarkOnSustainedBacklog) {
  EcnSharpQlenConfig config;
  config.ins_target_bytes = 100'000;
  config.pst_target_bytes = 3'000;
  config.pst_interval = Time::FromMicroseconds(100);
  EcnSharpQlenAqm aqm(config);
  int marks = 0;
  for (int t_us = 0; t_us < 1000; t_us += 5) {
    Packet pkt;
    pkt.size_bytes = 1500;
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.AllowEnqueue(pkt, QueueSnapshot{4, 6'000}, Time::Microseconds(t_us));
    if (pkt.IsCeMarked()) ++marks;
  }
  EXPECT_GE(marks, 1);
  EXPECT_LE(marks, 30);  // conservative, time-paced
  EXPECT_TRUE(aqm.marker().marking_state());
}

TEST(EcnSharpQlenTest, ResetsWhenBacklogDrains) {
  EcnSharpQlenConfig config;
  config.pst_target_bytes = 3'000;
  config.pst_interval = Time::FromMicroseconds(100);
  EcnSharpQlenAqm aqm(config);
  for (int t_us = 0; t_us < 500; t_us += 5) {
    Packet pkt;
    pkt.size_bytes = 1500;
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.AllowEnqueue(pkt, QueueSnapshot{4, 6'000}, Time::Microseconds(t_us));
  }
  ASSERT_TRUE(aqm.marker().marking_state());
  Packet pkt;
  pkt.size_bytes = 100;
  pkt.ecn = EcnCodepoint::kEct0;
  aqm.AllowEnqueue(pkt, QueueSnapshot{0, 0}, Time::Microseconds(505));
  EXPECT_FALSE(aqm.marker().marking_state());
}

}  // namespace
}  // namespace ecnsharp

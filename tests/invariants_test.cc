// System-wide invariant ("chaos") tests: random small topologies and
// workloads must preserve conservation properties regardless of scheme,
// seed, or load:
//   * every started flow completes (with finite buffers, via retransmission)
//   * per-queue accounting balances: enqueued = dequeued + still queued
//   * switch rx = sum of its ports' enqueue attempts
//   * delivered bytes per flow equal the flow size exactly
// Plus packet-tracer coverage.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "harness/experiment.h"
#include "net/packet_tracer.h"
#include "sched/fifo_queue_disc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "topo/dumbbell.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp {
namespace {

struct ChaosParam {
  std::uint64_t seed;
  Scheme scheme;
  double load;
  std::size_t senders;
  std::uint64_t buffer_bytes;  // small buffers force loss-recovery paths
};

class ChaosTest : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosTest, ConservationInvariants) {
  const ChaosParam param = GetParam();
  Simulator sim;
  DumbbellConfig topo_config;
  topo_config.senders = param.senders;
  SchemeParams params = SimulationSchemeParams();
  params.buffer_bytes = param.buffer_bytes;
  topo_config.buffer_bytes = param.buffer_bytes;
  Dumbbell topo(sim, topo_config, FifoDiscFactory(param.scheme, params));

  Rng rng(param.seed);
  const std::uint32_t receiver = topo.receiver_address();
  std::size_t completed = 0;
  std::uint64_t bytes_requested = 0;
  constexpr std::size_t kFlows = 60;
  Time at = Time::Zero();
  for (std::size_t i = 0; i < kFlows; ++i) {
    at += Time::FromMicroseconds(rng.Exponential(300.0 / param.load));
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, WebSearchWorkload().Sample(rng) *
                          0.1));  // scaled down for runtime
    bytes_requested += size;
    const std::size_t sender = rng.UniformInt(param.senders);
    sim.ScheduleAt(at, [&topo, &completed, sender, receiver, size] {
      topo.sender_stack(sender).StartFlow(
          receiver, size,
          [&completed, size](const FlowRecord& record) {
            ++completed;
            EXPECT_EQ(record.size_bytes, size);
            EXPECT_GT(record.Fct(), Time::Zero());
          });
    });
  }
  sim.RunUntil(Time::Seconds(60));

  // Every flow finished despite drops/timeouts.
  EXPECT_EQ(completed, kFlows);

  // Queue accounting balances on the bottleneck.
  const QueueDiscStats& stats = topo.bottleneck_port().queue_disc().stats();
  const QueueSnapshot queued = topo.bottleneck_port().queue_disc().Snapshot();
  EXPECT_EQ(stats.enqueued, stats.dequeued + queued.packets);

  // The port transmitted exactly what it dequeued.
  EXPECT_EQ(topo.bottleneck_port().counters().tx_packets, stats.dequeued);
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRuns, ChaosTest,
    ::testing::Values(
        ChaosParam{11, Scheme::kEcnSharp, 0.5, 4, 600ull * 1500},
        ChaosParam{12, Scheme::kDctcpRedTail, 0.8, 7, 600ull * 1500},
        ChaosParam{13, Scheme::kCodel, 0.7, 5, 120ull * 1500},
        ChaosParam{14, Scheme::kDropTail, 0.9, 7, 60ull * 1500},
        ChaosParam{15, Scheme::kTcn, 0.6, 3, 40ull * 1500},
        ChaosParam{16, Scheme::kEcnSharpTofino, 0.7, 6, 600ull * 1500},
        ChaosParam{17, Scheme::kEcnSharpPstOnly, 0.8, 6, 200ull * 1500}),
    [](const ::testing::TestParamInfo<ChaosParam>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

TEST(TracerTest, RecordsTransmissions) {
  Simulator sim;
  TextTracer tracer;
  struct Sink : PacketSink {
    void HandlePacket(std::unique_ptr<Packet>) override {}
  } sink;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10), Time::Zero(),
                  std::make_unique<FifoQueueDisc>(1 << 20, nullptr));
  port.ConnectTo(sink);
  port.AddTracer(&tracer);

  auto pkt = std::make_unique<Packet>();
  pkt->flow = FlowKey{3, 4, 55, 80};
  pkt->size_bytes = 1500;
  pkt->seq = 1460;
  pkt->ecn = EcnCodepoint::kCe;
  pkt->psh = true;
  port.Enqueue(std::move(pkt));
  sim.Run();

  ASSERT_EQ(tracer.lines().size(), 1u);
  const std::string& line = tracer.lines()[0];
  EXPECT_NE(line.find("TX DATA 3:55->4:80"), std::string::npos);
  EXPECT_NE(line.find("seq=1460"), std::string::npos);
  EXPECT_NE(line.find("len=1500"), std::string::npos);
  EXPECT_NE(line.find(" CE"), std::string::npos);
  EXPECT_NE(line.find(" PSH"), std::string::npos);
}

TEST(TracerTest, BoundsMemory) {
  TextTracer tracer(/*max_lines=*/3);
  Packet pkt;
  pkt.size_bytes = 100;
  for (int i = 0; i < 10; ++i) tracer.OnTransmit(pkt, Time::Microseconds(i));
  EXPECT_EQ(tracer.lines().size(), 3u);
  EXPECT_EQ(tracer.suppressed(), 7u);
}

TEST(TracerTest, FormatsAckAndCnp) {
  Packet ack;
  ack.type = PacketType::kAck;
  ack.size_bytes = 60;
  ack.ece = true;
  EXPECT_NE(TextTracer::Format(ack, Time::Zero()).find("TX ACK"),
            std::string::npos);
  EXPECT_NE(TextTracer::Format(ack, Time::Zero()).find(" ECE"),
            std::string::npos);
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size_bytes = 60;
  EXPECT_NE(TextTracer::Format(cnp, Time::Zero()).find("TX CNP"),
            std::string::npos);
}

}  // namespace
}  // namespace ecnsharp

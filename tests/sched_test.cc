// DWRR scheduler tests: classification, weighted sharing, work conservation,
// per-class AQM isolation.
#include "sched/dwrr_queue_disc.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "aqm/tcn.h"
#include "core/ecn_sharp.h"
#include "net/egress_port.h"
#include "sim/simulator.h"

namespace ecnsharp {
namespace {

std::unique_ptr<Packet> ClassedPacket(std::uint8_t cls,
                                      std::uint32_t bytes = 1500) {
  auto pkt = std::make_unique<Packet>();
  pkt->flow = FlowKey{0, 1, cls, 80};
  pkt->traffic_class = cls;
  pkt->size_bytes = bytes;
  pkt->ecn = EcnCodepoint::kEct0;
  return pkt;
}

DwrrQueueDisc MakeDwrr(std::vector<std::uint32_t> weights,
                       std::uint64_t capacity = 1ull << 24) {
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  for (const std::uint32_t w : weights) {
    classes.push_back(DwrrQueueDisc::ClassConfig{w, nullptr});
  }
  return DwrrQueueDisc(capacity, std::move(classes));
}

TEST(DwrrTest, SingleClassBehavesFifo) {
  DwrrQueueDisc disc = MakeDwrr({1});
  for (std::uint16_t i = 0; i < 5; ++i) {
    auto pkt = ClassedPacket(0);
    pkt->flow.src_port = i;
    disc.Enqueue(std::move(pkt), Time::Zero());
  }
  for (std::uint16_t i = 0; i < 5; ++i) {
    auto pkt = disc.Dequeue(Time::Zero());
    ASSERT_NE(pkt, nullptr);
    EXPECT_EQ(pkt->flow.src_port, i);
  }
  EXPECT_EQ(disc.Dequeue(Time::Zero()), nullptr);
}

TEST(DwrrTest, EqualWeightsAlternate) {
  DwrrQueueDisc disc = MakeDwrr({1, 1});
  for (int i = 0; i < 10; ++i) {
    disc.Enqueue(ClassedPacket(0), Time::Zero());
    disc.Enqueue(ClassedPacket(1), Time::Zero());
  }
  std::map<std::uint8_t, int> first_ten;
  for (int i = 0; i < 10; ++i) {
    ++first_ten[disc.Dequeue(Time::Zero())->traffic_class];
  }
  EXPECT_EQ(first_ten[0], 5);
  EXPECT_EQ(first_ten[1], 5);
}

TEST(DwrrTest, WeightsGovernServiceShares) {
  // Weights 2:1:1 (the Fig. 13 configuration): with all classes backlogged,
  // class 0 receives half the service.
  DwrrQueueDisc disc = MakeDwrr({2, 1, 1});
  for (int i = 0; i < 200; ++i) {
    disc.Enqueue(ClassedPacket(0), Time::Zero());
    disc.Enqueue(ClassedPacket(1), Time::Zero());
    disc.Enqueue(ClassedPacket(2), Time::Zero());
  }
  std::map<std::uint8_t, int> served;
  for (int i = 0; i < 200; ++i) {
    ++served[disc.Dequeue(Time::Zero())->traffic_class];
  }
  EXPECT_NEAR(served[0], 100, 4);
  EXPECT_NEAR(served[1], 50, 4);
  EXPECT_NEAR(served[2], 50, 4);
}

TEST(DwrrTest, ByteFairNotPacketFair) {
  // Class 0 sends 500 B packets, class 1 sends 1500 B: equal weights must
  // equalize bytes, so class 0 gets ~3x the packets.
  DwrrQueueDisc disc = MakeDwrr({1, 1});
  for (int i = 0; i < 600; ++i) disc.Enqueue(ClassedPacket(0, 500), Time::Zero());
  for (int i = 0; i < 200; ++i) disc.Enqueue(ClassedPacket(1, 1500), Time::Zero());
  std::map<std::uint8_t, std::uint64_t> bytes;
  for (int i = 0; i < 400; ++i) {
    auto pkt = disc.Dequeue(Time::Zero());
    bytes[pkt->traffic_class] += pkt->size_bytes;
  }
  const double ratio = static_cast<double>(bytes[0]) /
                       static_cast<double>(bytes[1]);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(DwrrTest, WorkConservingWhenClassesIdle) {
  // Only class 2 is backlogged: it gets every slot regardless of weights.
  DwrrQueueDisc disc = MakeDwrr({8, 4, 1});
  for (int i = 0; i < 50; ++i) disc.Enqueue(ClassedPacket(2), Time::Zero());
  for (int i = 0; i < 50; ++i) {
    auto pkt = disc.Dequeue(Time::Zero());
    ASSERT_NE(pkt, nullptr);
    EXPECT_EQ(pkt->traffic_class, 2);
  }
}

TEST(DwrrTest, IdleClassDoesNotHoardCredit) {
  DwrrQueueDisc disc = MakeDwrr({1, 1});
  // Class 0 alone for a long time...
  for (int i = 0; i < 100; ++i) disc.Enqueue(ClassedPacket(0), Time::Zero());
  for (int i = 0; i < 100; ++i) disc.Dequeue(Time::Zero());
  // ...then both become active: shares must be immediately ~equal, not
  // skewed by credit accumulated while class 1 was idle.
  for (int i = 0; i < 100; ++i) {
    disc.Enqueue(ClassedPacket(0), Time::Zero());
    disc.Enqueue(ClassedPacket(1), Time::Zero());
  }
  std::map<std::uint8_t, int> served;
  for (int i = 0; i < 100; ++i) {
    ++served[disc.Dequeue(Time::Zero())->traffic_class];
  }
  EXPECT_NEAR(served[0], 50, 2);
  EXPECT_NEAR(served[1], 50, 2);
}

TEST(DwrrTest, SharedBufferOverflowDrops) {
  DwrrQueueDisc disc = MakeDwrr({1, 1}, /*capacity=*/4500);
  EXPECT_TRUE(disc.Enqueue(ClassedPacket(0), Time::Zero()));
  EXPECT_TRUE(disc.Enqueue(ClassedPacket(1), Time::Zero()));
  EXPECT_TRUE(disc.Enqueue(ClassedPacket(0), Time::Zero()));
  EXPECT_FALSE(disc.Enqueue(ClassedPacket(1), Time::Zero()));
  EXPECT_EQ(disc.stats().dropped_overflow, 1u);
}

TEST(DwrrTest, ClassifierClampsOutOfRangeClass) {
  DwrrQueueDisc disc = MakeDwrr({1, 1});
  disc.Enqueue(ClassedPacket(9), Time::Zero());  // clamped to last class
  EXPECT_EQ(disc.ClassSnapshot(1).packets, 1u);
}

TEST(DwrrTest, CustomClassifier) {
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  classes.push_back({1, nullptr});
  classes.push_back({1, nullptr});
  DwrrQueueDisc disc(1ull << 20, std::move(classes), /*pool=*/nullptr,
                     [](const Packet& p) {
                       return p.size_bytes > 1000 ? std::size_t{1}
                                                  : std::size_t{0};
                     });
  disc.Enqueue(ClassedPacket(0, 500), Time::Zero());
  disc.Enqueue(ClassedPacket(0, 1500), Time::Zero());
  EXPECT_EQ(disc.ClassSnapshot(0).packets, 1u);
  EXPECT_EQ(disc.ClassSnapshot(1).packets, 1u);
}

TEST(DwrrTest, PerClassAqmSeesPerClassSojourn) {
  // Class 0 idles (no marks); class 1 has a standing queue long enough for
  // its own ECN# instance to mark — per-class isolation.
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  EcnSharpConfig config;
  config.ins_target = Time::FromMicroseconds(100);
  config.pst_target = Time::FromMicroseconds(10);
  config.pst_interval = Time::FromMicroseconds(50);
  classes.push_back({1, std::make_unique<EcnSharpAqm>(config)});
  classes.push_back({1, std::make_unique<EcnSharpAqm>(config)});
  DwrrQueueDisc disc(1ull << 24, std::move(classes));

  // Feed class 1 at t, drain at t + 200 us (sojourn far above ins_target).
  int marked = 0;
  for (int round = 0; round < 20; ++round) {
    const Time t = Time::Microseconds(500 * round);
    disc.Enqueue(ClassedPacket(1), t);
    auto pkt = disc.Dequeue(t + Time::FromMicroseconds(200));
    if (pkt->IsCeMarked()) ++marked;
  }
  EXPECT_GT(marked, 10);

  // Class 0 packets drain instantly: never marked.
  disc.Enqueue(ClassedPacket(0), Time::Milliseconds(100));
  auto pkt = disc.Dequeue(Time::Milliseconds(100));
  EXPECT_FALSE(pkt->IsCeMarked());
}

TEST(DwrrTest, SnapshotAggregatesClasses) {
  DwrrQueueDisc disc = MakeDwrr({1, 1, 1});
  disc.Enqueue(ClassedPacket(0, 1000), Time::Zero());
  disc.Enqueue(ClassedPacket(1, 2000), Time::Zero());
  disc.Enqueue(ClassedPacket(2, 3000), Time::Zero());
  EXPECT_EQ(disc.Snapshot().packets, 3u);
  EXPECT_EQ(disc.Snapshot().bytes, 6000u);
  disc.Dequeue(Time::Zero());
  EXPECT_EQ(disc.Snapshot().packets, 2u);
}

TEST(DwrrTest, DrivesEgressPortCorrectly) {
  // End-to-end through an EgressPort: weighted shares appear on the wire.
  Simulator sim;
  struct Counter : PacketSink {
    std::map<std::uint8_t, int> counts;
    void HandlePacket(std::unique_ptr<Packet> pkt) override {
      ++counts[pkt->traffic_class];
    }
  } sink;
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  classes.push_back({2, nullptr});
  classes.push_back({1, nullptr});
  auto disc = std::make_unique<DwrrQueueDisc>(1ull << 24, std::move(classes));
  EgressPort port(sim, DataRate::GigabitsPerSecond(10), Time::Zero(),
                  std::move(disc));
  port.ConnectTo(sink);
  for (int i = 0; i < 300; ++i) {
    port.Enqueue(ClassedPacket(0));
    port.Enqueue(ClassedPacket(1));
  }
  // Run long enough to transmit ~300 packets, not all 600.
  sim.RunUntil(DataRate::GigabitsPerSecond(10).TransmissionTime(1500 * 300));
  const int total = sink.counts[0] + sink.counts[1];
  ASSERT_GT(total, 200);
  EXPECT_NEAR(static_cast<double>(sink.counts[0]) / total, 2.0 / 3.0, 0.05);
}

}  // namespace
}  // namespace ecnsharp

// Tests for the extension modules: strict-priority scheduler, MQ-ECN,
// shared-buffer Dynamic Threshold, and the probabilistic ECN# variant.
#include <gtest/gtest.h>

#include <memory>

#include "core/ecn_sharp_prob.h"
#include "buffer/policies.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sched/sp_queue_disc.h"

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

// --------------------------- strict priority -------------------------------

SpQueueDisc MakeSp(std::size_t classes, std::uint64_t cap = 1ull << 24) {
  std::vector<SpQueueDisc::ClassConfig> configs(classes);
  return SpQueueDisc(cap, std::move(configs));
}

TEST(SpQueueDiscTest, HighPriorityAlwaysFirst) {
  SpQueueDisc disc = MakeSp(3);
  disc.Enqueue(ClassedPacket(2), Time::Zero());
  disc.Enqueue(ClassedPacket(0), Time::Zero());
  disc.Enqueue(ClassedPacket(1), Time::Zero());
  EXPECT_EQ(disc.Dequeue(Time::Zero())->traffic_class, 0);
  EXPECT_EQ(disc.Dequeue(Time::Zero())->traffic_class, 1);
  EXPECT_EQ(disc.Dequeue(Time::Zero())->traffic_class, 2);
  EXPECT_EQ(disc.Dequeue(Time::Zero()), nullptr);
}

TEST(SpQueueDiscTest, LowPriorityStarvesUnderHighLoad) {
  SpQueueDisc disc = MakeSp(2);
  for (int i = 0; i < 10; ++i) {
    disc.Enqueue(ClassedPacket(0), Time::Zero());
    disc.Enqueue(ClassedPacket(1), Time::Zero());
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(disc.Dequeue(Time::Zero())->traffic_class, 0);
  }
  EXPECT_EQ(disc.Dequeue(Time::Zero())->traffic_class, 1);
}

TEST(SpQueueDiscTest, PerClassAqmMarksOnSojourn) {
  std::vector<SpQueueDisc::ClassConfig> configs;
  EcnSharpConfig aqm_config;
  aqm_config.ins_target = Time::FromMicroseconds(50);
  configs.push_back({std::make_unique<EcnSharpAqm>(aqm_config)});
  configs.push_back({nullptr});
  SpQueueDisc disc(1ull << 24, std::move(configs));
  disc.Enqueue(ClassedPacket(0), Time::Zero());
  auto pkt = disc.Dequeue(Time::FromMicroseconds(100));
  EXPECT_TRUE(pkt->IsCeMarked());  // sojourn 100us > 50us instantaneous
}

TEST(SpQueueDiscTest, SharedCapacityOverflow) {
  SpQueueDisc disc = MakeSp(2, /*cap=*/3000);
  EXPECT_TRUE(disc.Enqueue(ClassedPacket(0), Time::Zero()));
  EXPECT_TRUE(disc.Enqueue(ClassedPacket(1), Time::Zero()));
  EXPECT_FALSE(disc.Enqueue(ClassedPacket(0), Time::Zero()));
  EXPECT_EQ(disc.stats().dropped_overflow, 1u);
}

// --------------------------- MQ-ECN ----------------------------------------

DwrrQueueDisc MakeMqEcnDwrr(std::vector<std::uint32_t> weights,
                            std::uint64_t total_threshold) {
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  for (const std::uint32_t w : weights) classes.push_back({w, nullptr});
  DwrrQueueDisc disc(1ull << 24, std::move(classes));
  disc.EnableMqEcn(total_threshold);
  return disc;
}

TEST(MqEcnTest, SingleActiveClassGetsFullThreshold) {
  // The class being asked about always counts as active (the arriving
  // packet backlogs it); idle peers reserve nothing.
  DwrrQueueDisc disc = MakeMqEcnDwrr({1, 1}, 30'000);
  EXPECT_EQ(disc.MqEcnThresholdBytes(0), 30'000u);
  for (int i = 0; i < 5; ++i) disc.Enqueue(ClassedPacket(0), Time::Zero());
  EXPECT_EQ(disc.MqEcnThresholdBytes(0), 30'000u);  // class 1 still idle
  // Once class 1 backlogs, class 0's share halves.
  disc.Enqueue(ClassedPacket(1), Time::Zero());
  EXPECT_EQ(disc.MqEcnThresholdBytes(0), 15'000u);
}

TEST(MqEcnTest, MarksWhenClassExceedsItsShare) {
  DwrrQueueDisc disc = MakeMqEcnDwrr({1, 1}, 12'000);
  // Only class 0 backlogged -> share = 12000 (class 1 idle).
  // Enqueue 1500B packets; while below threshold no marks.
  for (int i = 0; i < 8; ++i) {
    auto pkt = ClassedPacket(0);
    disc.Enqueue(std::move(pkt), Time::Zero());
  }
  EXPECT_EQ(disc.stats().ce_marked, 0u);
  // The 9th packet pushes class 0 beyond 12000 bytes.
  disc.Enqueue(ClassedPacket(0), Time::Zero());
  EXPECT_EQ(disc.stats().ce_marked, 1u);
}

TEST(MqEcnTest, ThresholdShrinksWhenMoreClassesActive) {
  DwrrQueueDisc disc = MakeMqEcnDwrr({1, 1}, 12'000);
  // Backlog class 1 so class 0's share halves to 6000.
  for (int i = 0; i < 2; ++i) disc.Enqueue(ClassedPacket(1), Time::Zero());
  for (int i = 0; i < 4; ++i) disc.Enqueue(ClassedPacket(0), Time::Zero());
  // 5th class-0 packet exceeds 6000 -> marked.
  disc.Enqueue(ClassedPacket(0), Time::Zero());
  EXPECT_GE(disc.stats().ce_marked, 1u);
}

TEST(MqEcnTest, WeightsScaleShares) {
  DwrrQueueDisc disc = MakeMqEcnDwrr({3, 1}, 40'000);
  disc.Enqueue(ClassedPacket(0), Time::Zero());
  disc.Enqueue(ClassedPacket(1), Time::Zero());
  // Class 0 share = 3/4 * 40000 = 30000; class 1 share = 10000.
  EXPECT_EQ(disc.MqEcnThresholdBytes(0), 30'000u);
  EXPECT_EQ(disc.MqEcnThresholdBytes(1), 10'000u);
}

// --------------------------- shared buffer ---------------------------------

TEST(SharedBufferTest, DynamicThresholdAdmission) {
  DynamicThresholdPolicy pool(100'000, /*alpha=*/1.0);
  const std::size_t queue = pool.RegisterQueue(0);
  const std::size_t other = pool.RegisterQueue(0);
  // Empty pool: a queue may grow to alpha * free = 100000.
  EXPECT_EQ(pool.LimitBytes(queue), 100'000u);
  EXPECT_TRUE(pool.TryReserve(queue, 1500));
  EXPECT_EQ(pool.used_bytes(), 1500u);
  // Once the pool holds 49500 bytes, a queue may hold at most alpha * free
  // = 50500: one byte more is refused.
  ASSERT_TRUE(pool.TryReserve(other, 48'000));
  EXPECT_FALSE(pool.TryReserve(queue, 49'001));
  EXPECT_TRUE(pool.TryReserve(queue, 49'000));
}

TEST(SharedBufferTest, HotQueueTakesLargeShare) {
  DynamicThresholdPolicy pool(120'000, 1.0);
  const std::size_t queue = pool.RegisterQueue(0);
  int admitted = 0;
  while (pool.TryReserve(queue, 1500)) ++admitted;
  // alpha=1: the single hot queue converges to total/2.
  EXPECT_NEAR(admitted * 1500.0, 60'000.0, 1500.0);
}

TEST(SharedBufferTest, ReleaseReturnsCapacity) {
  DynamicThresholdPolicy pool(10'000, 1.0);
  const std::size_t queue = pool.RegisterQueue(0);
  const std::size_t other = pool.RegisterQueue(0);
  ASSERT_TRUE(pool.TryReserve(queue, 4000));
  ASSERT_TRUE(pool.TryReserve(other, 3000));
  // Full-ish pool: the queue's limit is alpha * 3000 free.
  EXPECT_FALSE(pool.TryReserve(queue, 3000));
  pool.Release(queue, 4000);
  EXPECT_EQ(pool.used_bytes(), 3000u);
  EXPECT_TRUE(pool.TryReserve(queue, 3000));
}

TEST(SharedBufferTest, FifoIntegration) {
  DynamicThresholdPolicy pool(9'000, 1.0);
  FifoQueueDisc a(pool, nullptr);
  FifoQueueDisc b(pool, nullptr);
  // Queue a grabs what DT allows.
  int a_count = 0;
  while (a.Enqueue(ClassedPacket(0), Time::Zero())) ++a_count;
  EXPECT_GT(a_count, 0);
  EXPECT_EQ(a.stats().dropped_overflow, 1u);
  // Queue b can still get some share of the remaining free buffer.
  EXPECT_TRUE(b.Enqueue(ClassedPacket(0), Time::Zero()));
  // Draining a frees pool space.
  const std::uint64_t used_before = pool.used_bytes();
  a.Dequeue(Time::Zero());
  EXPECT_LT(pool.used_bytes(), used_before);
}

// --------------------------- probabilistic ECN# ----------------------------

EcnSharpProbConfig ProbConfig() {
  EcnSharpProbConfig config;
  config.t_min = Time::FromMicroseconds(40);
  config.t_max = Time::FromMicroseconds(200);
  config.p_max = 0.5;
  config.pst_target = Time::FromMicroseconds(10);
  config.pst_interval = Time::FromMicroseconds(240);
  return config;
}

double ProbMarkFraction(EcnSharpProbabilisticAqm& aqm, Time sojourn,
                        int packets, Time start = Time::Zero()) {
  int marks = 0;
  Time t = start;
  for (int i = 0; i < packets; ++i) {
    t += Time::FromMicroseconds(2);
    Packet pkt;
    pkt.size_bytes = 1500;
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.OnDequeue(pkt, QueueSnapshot{10, 15'000}, t, sojourn);
    if (pkt.IsCeMarked()) ++marks;
  }
  return static_cast<double>(marks) / packets;
}

TEST(EcnSharpProbTest, NoInstantMarkBelowTmin) {
  EcnSharpProbabilisticAqm aqm(ProbConfig(), 1);
  // Below t_min AND below pst_target: nothing ever marks.
  const double fraction =
      ProbMarkFraction(aqm, Time::FromMicroseconds(5), 2000);
  EXPECT_DOUBLE_EQ(fraction, 0.0);
}

TEST(EcnSharpProbTest, AlwaysMarksAboveTmax) {
  EcnSharpProbabilisticAqm aqm(ProbConfig(), 1);
  const double fraction =
      ProbMarkFraction(aqm, Time::FromMicroseconds(300), 500);
  EXPECT_DOUBLE_EQ(fraction, 1.0);
}

TEST(EcnSharpProbTest, RampIsMonotoneInSojourn) {
  // Disable the persistent detector so only the ramp is measured.
  EcnSharpProbConfig ramp_only = ProbConfig();
  ramp_only.pst_target = Time::Max() / 4;
  EcnSharpProbabilisticAqm low(ramp_only, 42);
  EcnSharpProbabilisticAqm mid(ramp_only, 42);
  EcnSharpProbabilisticAqm high(ramp_only, 42);
  const double f_low =
      ProbMarkFraction(low, Time::FromMicroseconds(60), 4000);
  const double f_mid =
      ProbMarkFraction(mid, Time::FromMicroseconds(120), 4000);
  const double f_high =
      ProbMarkFraction(high, Time::FromMicroseconds(180), 4000);
  EXPECT_LT(f_low, f_mid);
  EXPECT_LT(f_mid, f_high);
  // Expected ramp probabilities: ~0.0625, ~0.25, ~0.4375 (plus sparse
  // persistent marks).
  EXPECT_NEAR(f_low, 0.0625, 0.04);
  EXPECT_NEAR(f_high, 0.4375, 0.06);
}

TEST(EcnSharpProbTest, PersistentMarkingStillFiresInsideRampDeadZone) {
  // Sojourn between pst_target and t_min: the ramp never marks, but the
  // persistent detector must (after one interval), exactly like base ECN#.
  EcnSharpProbConfig config = ProbConfig();
  EcnSharpProbabilisticAqm aqm(config, 1);
  int marks = 0;
  for (int t_us = 0; t_us < 2000; t_us += 5) {
    Packet pkt;
    pkt.size_bytes = 1500;
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.OnDequeue(pkt, QueueSnapshot{5, 7500}, Time::Microseconds(t_us),
                  Time::FromMicroseconds(20));  // > pst_target, < t_min
    if (pkt.IsCeMarked()) ++marks;
  }
  EXPECT_GE(marks, 2);
  EXPECT_LE(marks, 40);  // conservative cadence, not per-packet
}

}  // namespace
}  // namespace ecnsharp

// CUBIC sender and mixed-congestion-control runs: flow completion and
// FlowRecord stamping for explicitly-CUBIC flows, loss recovery under a
// drop-tail bottleneck, the classic-ECN stance, and the cc_mix harness
// plumbing (per-controller FCT splits, determinism, default gating).
#include <gtest/gtest.h>

#include <memory>

#include "harness/experiment.h"
#include "harness/schemes.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "topo/dumbbell.h"
#include "transport/tcp_sender.h"

namespace ecnsharp {
namespace {

TEST(CubicSenderTest, ExplicitCubicFlowCompletesAndStampsRecord) {
  Simulator sim;
  DumbbellConfig config;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  bool done = false;
  topo.sender_stack(0).StartFlow(
      topo.receiver_address(), 2'000'000,
      [&done](const FlowRecord& record) {
        done = true;
        EXPECT_EQ(record.cc, CcKind::kCubic);
        EXPECT_EQ(record.size_bytes, 2'000'000u);
        EXPECT_GT(record.Fct().ToMicroseconds(), 0.0);
      },
      0, CcKind::kCubic);
  sim.RunUntil(Time::Seconds(10));
  EXPECT_TRUE(done);
}

TEST(CubicSenderTest, DefaultStanceIsNonEctSoEcnSharpNeverMarksIt) {
  // cubic_ecn_mode defaults to kNone: CUBIC cross-traffic sends non-ECT
  // packets, so even an ECN#-marking bottleneck cannot signal it.
  Simulator sim;
  DumbbellConfig config;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 1'000'000,
        [&done](const FlowRecord&) { ++done; }, 0, CcKind::kCubic);
  }
  sim.RunUntil(Time::Seconds(10));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(topo.bottleneck_port().queue_disc().stats().ce_marked, 0u);
}

TEST(CubicSenderTest, ClassicEcnStanceGetsMarkedAndStillCompletes) {
  Simulator sim;
  DumbbellConfig config;
  config.tcp.cubic_ecn_mode = EcnMode::kClassic;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  int done = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 1'000'000,
        [&done](const FlowRecord& record) {
          ++done;
          EXPECT_EQ(record.cc, CcKind::kCubic);
        },
        0, CcKind::kCubic);
  }
  sim.RunUntil(Time::Seconds(10));
  EXPECT_EQ(done, 3);
  EXPECT_GT(topo.bottleneck_port().queue_disc().stats().ce_marked, 0u);
}

TEST(CubicSenderTest, RecoversFromDropsUnderSmallDropTailBuffer) {
  // Loss is CUBIC's native signal: a ~20-packet drop-tail bottleneck forces
  // overflow drops, and every flow must still complete via fast recovery
  // (or, worst case, RTO) without wedging.
  Simulator sim;
  DumbbellConfig config;
  Dumbbell topo(sim, config, [](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(30'000, nullptr);
  });
  int done = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 1'000'000,
        [&done](const FlowRecord&) { ++done; }, 0, CcKind::kCubic);
  }
  sim.RunUntil(Time::Seconds(30));
  EXPECT_EQ(done, 4);
  EXPECT_GT(topo.bottleneck_port().queue_disc().stats().dropped_overflow, 0u);
}

// ------------------------------ cc_mix harness ------------------------------

TEST(CcMixTest, DefaultRunLeavesPerCcSplitsEmpty) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.seed = 11;
  const ExperimentResult result = RunDumbbell(config);
  EXPECT_EQ(result.flows_completed, 40u);
  // cc_mix == 0: the per-controller breakdown stays zeroed (and is omitted
  // from JSON export), keeping default records byte-identical.
  EXPECT_EQ(result.cubic_fct.count, 0u);
  EXPECT_EQ(result.newreno_fct.count, 0u);
  EXPECT_EQ(result.cubic_bytes, 0u);
  EXPECT_EQ(result.newreno_bytes, 0u);
}

TEST(CcMixTest, FullCubicMixDrivesEveryFlowWithCubic) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.seed = 11;
  config.cc_mix = 1.0;
  const ExperimentResult result = RunDumbbell(config);
  EXPECT_EQ(result.flows_completed, 40u);
  EXPECT_EQ(result.cubic_fct.count, 40u);
  EXPECT_EQ(result.newreno_fct.count, 0u);
  EXPECT_GT(result.cubic_bytes, 0u);
  EXPECT_EQ(result.newreno_bytes, 0u);
}

TEST(CcMixTest, HalfMixSplitsFlowsAcrossBothControllers) {
  DumbbellExperimentConfig config;
  config.flows = 80;
  config.seed = 11;
  config.cc_mix = 0.5;
  const ExperimentResult result = RunDumbbell(config);
  EXPECT_EQ(result.flows_completed, 80u);
  EXPECT_GT(result.cubic_fct.count, 0u);
  EXPECT_GT(result.newreno_fct.count, 0u);
  EXPECT_EQ(result.cubic_fct.count + result.newreno_fct.count, 80u);
  EXPECT_GT(result.cubic_bytes, 0u);
  EXPECT_GT(result.newreno_bytes, 0u);
}

TEST(CcMixTest, SameSeedMixedRunIsDeterministic) {
  DumbbellExperimentConfig config;
  config.flows = 60;
  config.seed = 23;
  config.cc_mix = 0.5;
  config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  config.buffer_policy.alpha = 1.0;
  config.buffer_policy.total_bytes = 1 << 20;
  const ExperimentResult a = RunDumbbell(config);
  const ExperimentResult b = RunDumbbell(config);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_DOUBLE_EQ(a.overall.avg_us, b.overall.avg_us);
  EXPECT_DOUBLE_EQ(a.cubic_fct.avg_us, b.cubic_fct.avg_us);
  EXPECT_DOUBLE_EQ(a.newreno_fct.avg_us, b.newreno_fct.avg_us);
  EXPECT_EQ(a.cubic_bytes, b.cubic_bytes);
  EXPECT_EQ(a.newreno_bytes, b.newreno_bytes);
}

TEST(CcMixTest, LeafSpineMixedRunWithDtPoolCompletes) {
  LeafSpineExperimentConfig config;
  config.params = SimulationSchemeParams();
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 60;
  config.load = 0.4;
  config.seed = 7;
  config.cc_mix = 0.5;
  config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  config.buffer_policy.alpha = 1.0;
  const ExperimentResult result = RunLeafSpine(config);
  EXPECT_EQ(result.flows_completed, 60u);
  EXPECT_GT(result.cubic_fct.count, 0u);
  EXPECT_GT(result.newreno_fct.count, 0u);
  EXPECT_EQ(result.cubic_fct.count + result.newreno_fct.count, 60u);
}

TEST(CcMixTest, FatTreeMixedRunWithHeadroomPoolCompletes) {
  FatTreeExperimentConfig config;
  config.topo.k = 4;
  config.flows = 40;
  config.load = 0.3;
  config.seed = 5;
  config.cc_mix = 0.5;
  config.buffer_policy.kind = BufferPolicyKind::kDtHeadroom;
  config.buffer_policy.alpha = 2.0;
  const ExperimentResult result = RunFatTree(config);
  EXPECT_EQ(result.flows_completed, 40u);
  EXPECT_GT(result.cubic_fct.count, 0u);
  EXPECT_GT(result.newreno_fct.count, 0u);
  EXPECT_EQ(result.cubic_fct.count + result.newreno_fct.count, 40u);
}

}  // namespace
}  // namespace ecnsharp

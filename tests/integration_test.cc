// Cross-module integration tests: whole-system simulations that check the
// paper's headline behaviours at reduced scale. These are the fast versions
// of what bench/ reproduces in full.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "topo/leaf_spine.h"
#include "workload/empirical_cdf.h"
#include "workload/traffic_generator.h"

namespace ecnsharp {
namespace {

// --------------------------- standing queue (Fig. 10) ----------------------

DumbbellExperimentConfig BaseIncast(Scheme scheme, std::uint32_t fanout) {
  DumbbellExperimentConfig config = IncastDumbbell(3);
  config.scheme = scheme;
  config.scenario.actions[0].flows = fanout;
  return config;
}

double StandingQueue(Scheme scheme) {
  // No burst flows: observe the standing queue only.
  return RunDumbbell(BaseIncast(scheme, 0)).standing_queue_packets;
}

TEST(IntegrationTest, EcnSharpEliminatesStandingQueue) {
  const double red_tail = StandingQueue(Scheme::kDctcpRedTail);
  const double ecn_sharp = StandingQueue(Scheme::kEcnSharp);
  // Paper §5.4: DCTCP-RED-Tail holds a standing queue near its threshold
  // (~180 pkts); ECN#'s persistent marking drains a large share of it (the
  // paper's elephants are sparser, so it drains ~95% there; see
  // EXPERIMENTS.md fidelity notes).
  EXPECT_GT(red_tail, 100.0);
  EXPECT_LT(ecn_sharp, red_tail * 0.65);
}

TEST(IntegrationTest, TofinoPipelineBehavesLikeReferenceInSystem) {
  const double reference = StandingQueue(Scheme::kEcnSharp);
  const double tofino = StandingQueue(Scheme::kEcnSharpTofino);
  // The emulated hardware pipeline must control the queue like the
  // reference implementation (tick quantization aside).
  EXPECT_LT(tofino, 2.0 * reference + 10.0);
  EXPECT_GT(tofino, reference / 3.0 - 10.0);
}

// --------------------------- incast burst tolerance (Figs. 10-11) ----------

TEST(IntegrationTest, EcnSharpToleratesIncastThatBreaksCodel) {
  const ExperimentResult sharp =
      RunDumbbell(BaseIncast(Scheme::kEcnSharp, 100));
  const ExperimentResult codel = RunDumbbell(BaseIncast(Scheme::kCodel, 100));

  EXPECT_EQ(sharp.burst_flows_completed, 100u);
  EXPECT_EQ(codel.burst_flows_completed, 100u);
  // ECN#'s instantaneous marking absorbs the burst without loss; CoDel,
  // reacting only to persistent congestion, overflows the buffer.
  EXPECT_EQ(sharp.burst_drops, 0u);
  EXPECT_GT(codel.burst_drops, 0u);
  EXPECT_LE(sharp.timeouts, codel.timeouts);
}

TEST(IntegrationTest, EcnSharpMatchesRedTailOnIncast) {
  const ExperimentResult sharp =
      RunDumbbell(BaseIncast(Scheme::kEcnSharp, 100));
  const ExperimentResult red =
      RunDumbbell(BaseIncast(Scheme::kDctcpRedTail, 100));
  // Burst tolerance comparable to current practice (both lossless here).
  EXPECT_EQ(sharp.burst_drops, 0u);
  EXPECT_EQ(red.burst_drops, 0u);
  EXPECT_LT(sharp.burst_fct.avg_us, red.burst_fct.avg_us * 1.5);
}

// --------------------------- FCT under production workloads (Figs. 6-7) ----

DumbbellExperimentConfig BaseDumbbell(Scheme scheme) {
  DumbbellExperimentConfig config;
  config.scheme = scheme;
  config.load = 0.6;
  config.flows = 400;
  config.seed = 5;
  return config;
}

TEST(IntegrationTest, EcnSharpImprovesShortFlowsWithoutHurtingLarge) {
  const ExperimentResult sharp = RunDumbbell(BaseDumbbell(Scheme::kEcnSharp));
  const ExperimentResult red =
      RunDumbbell(BaseDumbbell(Scheme::kDctcpRedTail));
  ASSERT_EQ(sharp.flows_completed, 400u);
  ASSERT_EQ(red.flows_completed, 400u);
  // Short flows benefit from the drained queue...
  EXPECT_LT(sharp.short_flows.avg_us, red.short_flows.avg_us);
  // ...and large flows keep comparable throughput (generous band: only a
  // few hundred heavy-tailed flows at this scale).
  EXPECT_LT(sharp.large_flows.avg_us, red.large_flows.avg_us * 1.3);
}

TEST(IntegrationTest, LowThresholdHurtsLargeFlows) {
  // The §2.3 dilemma: an average-RTT threshold helps short flows but costs
  // large-flow throughput relative to the tail threshold.
  const ExperimentResult avg =
      RunDumbbell(BaseDumbbell(Scheme::kDctcpRedAvg));
  const ExperimentResult tail =
      RunDumbbell(BaseDumbbell(Scheme::kDctcpRedTail));
  EXPECT_LT(avg.short_flows.avg_us, tail.short_flows.avg_us);
  EXPECT_GT(avg.large_flows.avg_us, tail.large_flows.avg_us);
}

TEST(IntegrationTest, AllFlowsCompleteUnderEveryScheme) {
  for (const Scheme scheme :
       {Scheme::kDctcpRedTail, Scheme::kDctcpRedAvg, Scheme::kCodel,
        Scheme::kTcn, Scheme::kEcnSharp, Scheme::kDropTail}) {
    DumbbellExperimentConfig config = BaseDumbbell(scheme);
    config.flows = 150;
    config.workload = &DataMiningWorkload();
    const ExperimentResult result = RunDumbbell(config);
    EXPECT_EQ(result.flows_completed, 150u) << SchemeName(scheme);
  }
}

// --------------------------- leaf-spine fabric (Fig. 9) --------------------

TEST(IntegrationTest, LeafSpineDeliversAcrossFabric) {
  LeafSpineExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 200;
  config.load = 0.4;
  config.seed = 7;
  const ExperimentResult result = RunLeafSpine(config);
  EXPECT_EQ(result.flows_completed, 200u);
  EXPECT_GT(result.overall.count, 0u);
}

TEST(IntegrationTest, LeafSpineEcmpUsesAllSpines) {
  Simulator sim;
  LeafSpineConfig config;
  config.spines = 4;
  config.leaves = 2;
  config.hosts_per_leaf = 4;
  LeafSpine topo(sim, config, [](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(1ull << 24, nullptr);
  });
  // Many cross-rack flows.
  int done = 0;
  for (int i = 0; i < 40; ++i) {
    topo.stack(static_cast<std::size_t>(i % 4))
        .StartFlow(static_cast<std::uint32_t>(4 + i % 4), 50'000,
                   [&done](const FlowRecord&) { ++done; });
  }
  sim.RunUntil(Time::Seconds(5));
  EXPECT_EQ(done, 40);
  int spines_used = 0;
  for (std::size_t s = 0; s < topo.spine_count(); ++s) {
    std::uint64_t tx = 0;
    for (std::size_t p = 0; p < topo.spine(s).port_count(); ++p) {
      tx += topo.spine(s).port(p).counters().tx_packets;
    }
    if (tx > 0) ++spines_used;
  }
  EXPECT_GE(spines_used, 3);
}

TEST(IntegrationTest, LeafSpineEcnSharpBeatsRedTailForShortFlows) {
  LeafSpineExperimentConfig config;
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 8;
  config.flows = 500;
  config.load = 0.6;
  config.seed = 11;

  config.scheme = Scheme::kEcnSharp;
  const ExperimentResult sharp = RunLeafSpine(config);
  config.scheme = Scheme::kDctcpRedTail;
  const ExperimentResult red = RunLeafSpine(config);
  ASSERT_EQ(sharp.flows_completed, 500u);
  ASSERT_EQ(red.flows_completed, 500u);
  EXPECT_LT(sharp.short_flows.avg_us, red.short_flows.avg_us);
}

}  // namespace
}  // namespace ecnsharp

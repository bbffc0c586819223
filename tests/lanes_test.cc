// Locality-sharded event lanes: LaneSet semantics and RunFatTree on more
// than one lane (the `--relaxed-lanes` mode; one lane is the serial run).
//
// The relaxed mode's contract is run-to-run determinism (same config + lane
// count => bit-identical results), NOT byte-parity with the single-lane
// run — same-timestamp ties across lanes may resolve differently. These
// tests pin exactly that contract, plus the conservative-window causality
// guarantees of LaneSet and the session's multi-lane restrictions.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "harness/schemes.h"
#include "net/lane_bridge.h"
#include "sim/lane_executor.h"
#include "sim/time.h"
#include "topo/fat_tree.h"

namespace ecnsharp {
namespace {

TEST(LaneSetTest, CrossLanePostsExecuteAtPostedTimeOnTargetLane) {
  LaneSet lanes(2);
  std::vector<std::pair<int, double>> log;  // (tag, time in us)

  // Lane 0 produces a cross-lane event during the first round; with the
  // posted `when` one full window ahead, lane 1 absorbs it at the next
  // round boundary and executes it at exactly the posted time.
  lanes.lane(0).ScheduleAt(Time::FromMicroseconds(3), [&lanes, &log] {
    log.emplace_back(0, lanes.lane(0).Now().ToMicroseconds());
    lanes.Post(0, 1, lanes.lane(0).Now() + Time::FromMicroseconds(10),
               [&lanes, &log] {
                 log.emplace_back(1, lanes.lane(1).Now().ToMicroseconds());
               });
  });
  lanes.Run(Time::FromMicroseconds(40), Time::FromMicroseconds(10));

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 0);
  EXPECT_DOUBLE_EQ(log[0].second, 3.0);
  EXPECT_EQ(log[1].first, 1);
  EXPECT_DOUBLE_EQ(log[1].second, 13.0);
}

TEST(LaneSetTest, RunLeavesEveryLaneClockAtUntil) {
  LaneSet lanes(3);
  lanes.Run(Time::FromMicroseconds(25), Time::FromMicroseconds(4));
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(lanes.lane(i).Now(), Time::FromMicroseconds(25));
  }
  // Slice boundaries are transparent: a second Run continues from there.
  lanes.Run(Time::FromMicroseconds(50), Time::FromMicroseconds(4));
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    EXPECT_EQ(lanes.lane(i).Now(), Time::FromMicroseconds(50));
  }
}

TEST(LaneSetTest, MailboxAbsorptionOrdersByWhenThenPosterThenSeq) {
  // Three posters race into lane 0's mailbox during round one. Whatever the
  // thread interleaving, absorption must execute them in (when, from, seq)
  // order — pinned by running the identical setup twice.
  const auto run_once = [] {
    LaneSet lanes(4);
    std::vector<int> order;
    for (std::size_t from = 1; from < 4; ++from) {
      lanes.lane(from).ScheduleAt(
          Time::FromMicroseconds(1), [&lanes, &order, from] {
            // Two posts per poster, same target time: seq breaks the tie.
            for (int rep = 0; rep < 2; ++rep) {
              lanes.Post(from, 0, Time::FromMicroseconds(15),
                         [&order, from, rep] {
                           order.push_back(static_cast<int>(from) * 10 + rep);
                         });
            }
          });
    }
    lanes.Run(Time::FromMicroseconds(30), Time::FromMicroseconds(10));
    return order;
  };
  const std::vector<int> expected = {10, 11, 20, 21, 30, 31};
  EXPECT_EQ(run_once(), expected);
  EXPECT_EQ(run_once(), expected);
}

TEST(FatTreeLaneShardingTest, LocalityAnnotationsAndLaneMapping) {
  LaneSet lanes(3);
  FatTreeConfig config;
  config.k = 4;
  FatTree topo(lanes.lane(0), config,
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()), &lanes);
  ASSERT_TRUE(topo.lane_sharded());
  // Pod p is locality 1 + p, cores locality 0; lane = locality % 3.
  EXPECT_EQ(topo.LaneOfHost(0), 1u);                    // pod 0 -> lane 1
  EXPECT_EQ(topo.LaneOfHost(topo.hosts_per_pod()), 2u);  // pod 1 -> lane 2
  // Pod 2 wraps onto lane 0, sharing the core tier's lane: intra-lane
  // agg<->core links there are direct (un-bridged), which is legal since
  // same-lane events never cross a mailbox.
  EXPECT_EQ(topo.LaneOfHost(2 * topo.hosts_per_pod()), 0u);
}

TEST(FatTreeLaneShardingTest, SingleSimBuildReportsUnsharded) {
  Simulator sim;
  FatTreeConfig config;
  config.k = 4;
  FatTree topo(sim, config,
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  EXPECT_FALSE(topo.lane_sharded());
  EXPECT_EQ(topo.LaneOfHost(0), 0u);
}

FatTreeExperimentConfig SmallRelaxedConfig() {
  FatTreeExperimentConfig config;
  config.topo.k = 4;
  config.flows = 150;
  config.seed = 7;
  return config;
}

TEST(RelaxedLanesTest, CompletesEveryFlow) {
  const ExperimentResult r = RunFatTree(SmallRelaxedConfig(), 2);
  EXPECT_EQ(r.flows_started, 150u);
  EXPECT_EQ(r.flows_completed, 150u);
  EXPECT_GT(r.overall.avg_us, 0.0);
  EXPECT_GT(r.sim_seconds, 0.0);
}

TEST(RelaxedLanesTest, RunToRunBitIdentical) {
  const ExperimentResult a = RunFatTree(SmallRelaxedConfig(), 3);
  const ExperimentResult b = RunFatTree(SmallRelaxedConfig(), 3);
  EXPECT_EQ(a.flows_completed, b.flows_completed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.overall.avg_us, b.overall.avg_us);
  EXPECT_EQ(a.overall.p99_us, b.overall.p99_us);
  EXPECT_EQ(a.short_flows.avg_us, b.short_flows.avg_us);
  EXPECT_EQ(a.bottleneck.ce_marked, b.bottleneck.ce_marked);
  EXPECT_EQ(a.bottleneck.dropped_overflow, b.bottleneck.dropped_overflow);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
}

TEST(RelaxedLanesTest, OffersTheSameWorkloadAsTheSingleLaneRunner) {
  // Both runs draw the workload from the same session and generator, so
  // they start the same flows; trajectories (and therefore FCTs) may
  // differ at cross-lane ties, but completion accounting must agree.
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  const ExperimentResult relaxed = RunFatTree(config, 2);
  const ExperimentResult single = RunFatTree(config);
  EXPECT_EQ(relaxed.flows_started, single.flows_started);
  EXPECT_EQ(relaxed.flows_completed, single.flows_completed);
}

// One lane is the serial run; zero lanes, or more than the k + 1
// localities of a k-ary fat-tree, are config errors.
TEST(RelaxedLanesDeathTest, RejectsZeroLanes) {
  EXPECT_EXIT(RunFatTree(SmallRelaxedConfig(), 0), testing::ExitedWithCode(2),
              "lanes must be in \\[1, k \\+ 1 = 5\\], got 0");
}

TEST(RelaxedLanesDeathTest, RejectsMoreLanesThanLocalities) {
  EXPECT_EXIT(RunFatTree(SmallRelaxedConfig(), 6), testing::ExitedWithCode(2),
              "lanes must be in \\[1, k \\+ 1 = 5\\], got 6");
}

TEST(RelaxedLanesDeathTest, RejectsScenarioScripts) {
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  config.scenario.actions.push_back(ScenarioAction{});
  EXPECT_EXIT(RunFatTree(config, 2), testing::ExitedWithCode(2),
              "cannot run scenario scripts");
}

TEST(RelaxedLanesDeathTest, RejectsTracing) {
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  config.trace.enabled = true;
  EXPECT_EXIT(RunFatTree(config, 2), testing::ExitedWithCode(2),
              "tracing enabled");
}

TEST(RelaxedLanesDeathTest, RejectsSketchTelemetry) {
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  config.sketch.enabled = true;
  EXPECT_EXIT(RunFatTree(config, 2), testing::ExitedWithCode(2),
              "sketch telemetry");
}

TEST(RelaxedLanesDeathTest, RejectsQueueSampling) {
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  config.queue_sample_period = Time::FromMicroseconds(100);
  EXPECT_EXIT(RunFatTree(config, 2), testing::ExitedWithCode(2),
              "queue sampling");
}

TEST(RelaxedLanesDeathTest, RejectsNonPositiveFabricDelay) {
  FatTreeExperimentConfig config = SmallRelaxedConfig();
  config.topo.fabric_link_delay = Time::Zero();
  EXPECT_EXIT(RunFatTree(config, 2), testing::ExitedWithCode(2),
              "positive fabric_link_delay");
}

}  // namespace
}  // namespace ecnsharp

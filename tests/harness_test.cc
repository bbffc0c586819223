// Harness tests: scheme factory, parameter presets, env knobs, tables, the
// experiment entry point and the config record.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "aqm/codel.h"
#include "aqm/dctcp_red.h"
#include "aqm/tcn.h"
#include "buffer/policies.h"
#include "core/ecn_sharp.h"
#include "harness/config_json.h"
#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/schemes.h"
#include "harness/table.h"
#include "sched/fifo_queue_disc.h"
#include "tofino/ecn_sharp_pipeline.h"

namespace ecnsharp {
namespace {

TEST(SchemesTest, NamesAreStable) {
  EXPECT_STREQ(SchemeName(Scheme::kDctcpRedTail), "DCTCP-RED-Tail");
  EXPECT_STREQ(SchemeName(Scheme::kEcnSharp), "ECN#");
  EXPECT_STREQ(SchemeName(Scheme::kEcnSharpTofino), "ECN#-Tofino");
  EXPECT_STREQ(SchemeName(Scheme::kDropTail), "DropTail");
}

TEST(SchemesTest, FactoryBuildsMatchingPolicies) {
  const SchemeParams params;
  EXPECT_NE(dynamic_cast<DctcpRedAqm*>(
                MakeAqm(Scheme::kDctcpRedTail, params).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<DctcpRedAqm*>(
                MakeAqm(Scheme::kDctcpRedAvg, params).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<CodelAqm*>(MakeAqm(Scheme::kCodel, params).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<TcnAqm*>(MakeAqm(Scheme::kTcn, params).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<EcnSharpAqm*>(
                MakeAqm(Scheme::kEcnSharp, params).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<TofinoEcnSharpAqm*>(
                MakeAqm(Scheme::kEcnSharpTofino, params).get()),
            nullptr);
  EXPECT_EQ(MakeAqm(Scheme::kDropTail, params), nullptr);
}

TEST(SchemesTest, TailAndAvgUseDistinctThresholds) {
  const SchemeParams params;
  const auto tail = MakeAqm(Scheme::kDctcpRedTail, params);
  const auto avg = MakeAqm(Scheme::kDctcpRedAvg, params);
  EXPECT_EQ(dynamic_cast<DctcpRedAqm&>(*tail).threshold_bytes(), 250'000u);
  EXPECT_EQ(dynamic_cast<DctcpRedAqm&>(*avg).threshold_bytes(), 80'000u);
}

TEST(SchemesTest, SimulationPresetMatchesSection53) {
  const SchemeParams params = SimulationSchemeParams();
  // C * p90RTT = 10 Gbps * 220 us = 275 KB; C * avgRTT = 171 KB.
  EXPECT_EQ(params.red_tail_threshold_bytes, 275'000u);
  EXPECT_EQ(params.red_avg_threshold_bytes, 171'000u);
  EXPECT_EQ(params.codel.interval, Time::FromMicroseconds(240));
  EXPECT_EQ(params.ecn_sharp.ins_target, Time::FromMicroseconds(220));
  EXPECT_EQ(params.ecn_sharp.pst_target, Time::FromMicroseconds(10));
}

TEST(SchemesTest, FifoDiscWiresAqm) {
  const SchemeParams params;
  auto disc = MakeFifoDisc(Scheme::kEcnSharp, params);
  auto* fifo = dynamic_cast<FifoQueueDisc*>(disc.get());
  ASSERT_NE(fifo, nullptr);
  EXPECT_EQ(fifo->capacity_bytes(), params.buffer_bytes);
  EXPECT_NE(dynamic_cast<EcnSharpAqm*>(fifo->aqm()), nullptr);
}

TEST(SchemesTest, FifoDiscFactoryDrawsFromThePool) {
  const SchemeParams params;
  const DiscFactory make_disc = FifoDiscFactory(Scheme::kEcnSharp, params);
  auto fixed = make_disc(nullptr);
  auto* fifo = dynamic_cast<FifoQueueDisc*>(fixed.get());
  ASSERT_NE(fifo, nullptr);
  EXPECT_EQ(fifo->capacity_bytes(), params.buffer_bytes);
  EXPECT_NE(dynamic_cast<EcnSharpAqm*>(fifo->aqm()), nullptr);

  DynamicThresholdPolicy pool(100'000, 1.0);
  auto pooled = make_disc(&pool);
  EXPECT_EQ(pool.queue_count(), 1u);
  EXPECT_EQ(dynamic_cast<FifoQueueDisc&>(*pooled).capacity_bytes(), 100'000u);
}

TEST(EnvTest, IntAndDoubleParsing) {
  ::setenv("ECNSHARP_TEST_INT", "1234", 1);
  EXPECT_EQ(EnvInt("ECNSHARP_TEST_INT", 7), 1234);
  EXPECT_EQ(EnvInt("ECNSHARP_TEST_MISSING", 7), 7);
  ::setenv("ECNSHARP_TEST_DBL", "0.75", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("ECNSHARP_TEST_DBL", 0.1), 0.75);
  ::setenv("ECNSHARP_TEST_EMPTY", "", 1);
  EXPECT_EQ(EnvInt("ECNSHARP_TEST_EMPTY", 9), 9);
  ::unsetenv("ECNSHARP_TEST_INT");
  ::unsetenv("ECNSHARP_TEST_DBL");
  ::unsetenv("ECNSHARP_TEST_EMPTY");
}

TEST(EnvTest, BenchFlowCountPrecedence) {
  ::unsetenv("ECNSHARP_FLOWS");
  ::unsetenv("ECNSHARP_FULL");
  EXPECT_EQ(BenchFlowCount(100, 500), 100u);
  ::setenv("ECNSHARP_FULL", "1", 1);
  EXPECT_EQ(BenchFlowCount(100, 500), 500u);
  ::setenv("ECNSHARP_FLOWS", "42", 1);
  EXPECT_EQ(BenchFlowCount(100, 500), 42u);
  ::unsetenv("ECNSHARP_FLOWS");
  ::unsetenv("ECNSHARP_FULL");
}

TEST(TablePrinterTest, Formatting) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(10.0, 0), "10");
  EXPECT_EQ(TablePrinter::FmtUs(123.4), "123.4us");
  EXPECT_EQ(TablePrinter::FmtUs(25000.0), "25.0ms");
}

TEST(ExperimentTest, DumbbellResultIsDeterministicForSeed) {
  DumbbellExperimentConfig config;
  config.flows = 60;
  config.load = 0.4;
  config.seed = 99;
  const ExperimentResult a = RunDumbbell(config);
  const ExperimentResult b = RunDumbbell(config);
  EXPECT_DOUBLE_EQ(a.overall.avg_us, b.overall.avg_us);
  EXPECT_EQ(a.bottleneck.ce_marked, b.bottleneck.ce_marked);
  EXPECT_EQ(a.flows_completed, 60u);
}

TEST(ExperimentTest, SeedChangesTraffic) {
  DumbbellExperimentConfig config;
  config.flows = 60;
  config.load = 0.4;
  config.seed = 1;
  const ExperimentResult a = RunDumbbell(config);
  config.seed = 2;
  const ExperimentResult b = RunDumbbell(config);
  EXPECT_NE(a.overall.avg_us, b.overall.avg_us);
}

TEST(ExperimentTest, QueueMonitoringOptIn) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.load = 0.5;
  config.queue_sample_period = Time::FromMicroseconds(50);
  const ExperimentResult r = RunDumbbell(config);
  EXPECT_GT(r.max_queue_packets, 0u);
}

// The fabric families share every ExperimentCommon field; only the default
// parameter preset differs: testbed for the dumbbell and leaf-spine, §5.3
// simulation for the fat-tree and inter-DC fabrics.
TEST(ExperimentTest, FamiliesDefaultToTheirPaperParameters) {
  const std::string testbed = ToJson(SchemeParams()).Dump();
  const std::string simulation = ToJson(SimulationSchemeParams()).Dump();
  EXPECT_EQ(ToJson(DumbbellExperimentConfig().params).Dump(), testbed);
  EXPECT_EQ(ToJson(LeafSpineExperimentConfig().params).Dump(), testbed);
  EXPECT_EQ(ToJson(FatTreeExperimentConfig().params).Dump(), simulation);
  EXPECT_EQ(ToJson(InterDcExperimentConfig().params).Dump(), simulation);
  EXPECT_EQ(ToJson(IncastExperimentConfig().params).Dump(), simulation);
}

std::vector<ExperimentConfig> TinyExperiments() {
  DumbbellExperimentConfig dumbbell;
  dumbbell.flows = 30;
  LeafSpineExperimentConfig leaf_spine;
  leaf_spine.topo.spines = 2;
  leaf_spine.topo.leaves = 2;
  leaf_spine.topo.hosts_per_leaf = 4;
  leaf_spine.flows = 30;
  FatTreeExperimentConfig fat_tree;
  fat_tree.topo.k = 4;
  fat_tree.flows = 30;
  InterDcExperimentConfig interdc;
  interdc.topo.side_a.leaf_spine = leaf_spine.topo;
  interdc.topo.side_b.leaf_spine = leaf_spine.topo;
  interdc.topo.border_rtt = Time::FromMicroseconds(500);
  interdc.flows = 30;
  IncastExperimentConfig incast;
  incast.query_flows = 10;
  return {dumbbell, leaf_spine, fat_tree, interdc, incast};
}

TEST(ExperimentTest, RunExperimentMatchesTheFamilyRunner) {
  const std::vector<ExperimentConfig> configs = TinyExperiments();
  const auto dump = [](const ExperimentOutcome& outcome) {
    return std::visit([](const auto& r) { return ToJson(r).Dump(); },
                      outcome);
  };
  EXPECT_EQ(dump(RunExperiment(configs[0])),
            ToJson(RunDumbbell(std::get<0>(configs[0]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[1])),
            ToJson(RunLeafSpine(std::get<1>(configs[1]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[2])),
            ToJson(RunFatTree(std::get<2>(configs[2]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[3])),
            ToJson(RunInterDc(std::get<3>(configs[3]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[4])),
            ToJson(RunIncast(std::get<4>(configs[4]))).Dump());
}

std::vector<std::string> Keys(const Json& json) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : json.members()) keys.push_back(key);
  return keys;
}

// One serializer writes every fabric record: the shared fields in one order
// around each family's shape keys. The key order is part of the exported
// JSON contract (sweep records must stay byte-identical).
TEST(ConfigJsonTest, RecordKeysFollowTheFamilyOrder) {
  const std::vector<ExperimentConfig> configs = TinyExperiments();
  using KeyList = std::vector<std::string>;
  EXPECT_EQ(Keys(ToJson(configs[0])),
            (KeyList{"topology", "scheme", "workload", "load", "flows",
                   "rtt_variation", "base_rtt_us", "senders", "rate_bps",
                   "seed", "queue_sample_period_us", "max_sim_time_us", "tcp",
                   "params"}));
  EXPECT_EQ(Keys(ToJson(configs[1])),
            (KeyList{"topology", "scheme", "workload", "load", "flows",
                   "spines", "leaves", "hosts_per_leaf", "rate_bps",
                   "max_extra_delay_us", "seed", "queue_sample_period_us",
                   "max_sim_time_us", "tcp", "params"}));
  EXPECT_EQ(Keys(ToJson(configs[2])),
            (KeyList{"topology", "scheme", "workload", "load", "flows", "k",
                   "rate_bps", "host_link_delay_us", "fabric_link_delay_us",
                   "max_extra_delay_us", "seed", "queue_sample_period_us",
                   "max_sim_time_us", "tcp", "params"}));
  EXPECT_EQ(Keys(ToJson(configs[3])),
            (KeyList{"topology", "scheme", "workload", "inter_workload", "load",
                   "flows", "inter_fraction", "side_a", "side_b",
                   "border_links", "border_rate_bps", "border_rtt_us",
                   "attach_delay_us", "inter_rtt_fraction",
                   "max_extra_delay_us", "seed", "queue_sample_period_us",
                   "max_sim_time_us", "params"}));
  EXPECT_EQ(Keys(ToJson(configs[4])),
            (KeyList{"topology", "scheme", "senders", "long_flows",
                   "query_flows", "query_min_bytes", "query_max_bytes",
                   "burst_time_us", "rtt_variation", "base_rtt_us",
                   "rate_bps", "seed", "queue_sample_period_us",
                   "max_sim_time_us", "tcp", "params"}));
}

TEST(ConfigJsonTest, OptionalKeysAppearOnlyWhenSet) {
  FatTreeExperimentConfig config;
  const std::vector<std::string> plain = Keys(ToJson(config));
  // Sketch telemetry alone, estimating from the oracle.
  config.sketch.enabled = true;
  std::vector<std::string> expected = plain;
  expected.push_back("sketch");
  EXPECT_EQ(Keys(ToJson(config)), expected);

  ScenarioAction reestimate;
  reestimate.kind = ScenarioActionKind::kReestimateEcnSharp;
  config.scenario.actions.push_back(reestimate);
  config.cc_mix = 0.25;
  config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  config.estimator = EcnEstimator::kSketch;
  expected = plain;
  expected.insert(expected.end(), {"scenario", "cc_mix", "buffer_policy",
                                   "estimator", "sketch"});
  const Json record = ToJson(config);
  EXPECT_EQ(Keys(record), expected);
  EXPECT_EQ(record.Find("estimator")->AsString(), "sketch");
  EXPECT_EQ(Keys(*record.Find("sketch")),
            (std::vector<std::string>{"memory_kb", "depth", "epoch_us",
                                      "window_epochs", "decay",
                                      "heavy_hitters", "track_exact"}));
}

}  // namespace
}  // namespace ecnsharp

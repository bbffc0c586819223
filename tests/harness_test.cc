// Harness tests: scheme factory, parameter presets, env knobs, tables, the
// experiment entry point and the config record.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
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
#include "sim/random.h"
#include "sketch/sketch_config.h"
#include "trace/trace_config.h"
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
  EXPECT_EQ(ToJson(IncastDumbbell(1).params).Dump(), simulation);
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
  DumbbellExperimentConfig incast = IncastDumbbell(1);
  incast.scenario.actions[0].flows = 10;
  return {dumbbell, leaf_spine, fat_tree, interdc, incast};
}

TEST(ExperimentTest, RunExperimentMatchesTheFamilyRunner) {
  const std::vector<ExperimentConfig> configs = TinyExperiments();
  const auto dump = [](const ExperimentResult& r) { return ToJson(r).Dump(); };
  EXPECT_EQ(dump(RunExperiment(configs[0])),
            ToJson(RunDumbbell(std::get<0>(configs[0]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[1])),
            ToJson(RunLeafSpine(std::get<1>(configs[1]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[2])),
            ToJson(RunFatTree(std::get<2>(configs[2]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[3])),
            ToJson(RunInterDc(std::get<3>(configs[3]))).Dump());
  EXPECT_EQ(dump(RunExperiment(configs[4])),
            ToJson(RunDumbbell(std::get<0>(configs[4]))).Dump());
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
            (KeyList{"topology", "scheme", "workload", "load", "flows",
                   "rtt_variation", "base_rtt_us", "senders", "rate_bps",
                   "seed", "queue_sample_period_us", "max_sim_time_us", "tcp",
                   "params", "scenario", "long_flows", "rtt_profile"}));
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


// A TCP config with every field away from its default.
TcpConfig FullTcp() {
  TcpConfig tcp;
  tcp.mss = 1200;
  tcp.init_cwnd_segments = 4;
  tcp.ecn_mode = EcnMode::kClassic;
  tcp.dctcp_g = 0.125;
  tcp.dctcp_init_alpha = 0.5;
  tcp.min_rto = Time::Milliseconds(2);
  tcp.max_rto = Time::Seconds(1);
  tcp.dupack_threshold = 4;
  tcp.delayed_ack_count = 1;
  tcp.delayed_ack_timeout = Time::FromMicroseconds(200);
  tcp.pacing = true;
  tcp.pacing_gain = 1.5;
  tcp.initial_pacing_rate = DataRate::GigabitsPerSecond(2.5);
  tcp.max_cwnd_bytes = 16 * 1024 * 1024;
  tcp.cc_kind = CcKind::kCubic;
  tcp.cubic_beta = 0.8;
  tcp.cubic_c = 0.3;
  tcp.cubic_fast_convergence = false;
  tcp.cubic_ecn_mode = EcnMode::kClassic;
  return tcp;
}

// Every shared field and every optional key set away from its default.
template <typename Config>
Config WithFullCommon(Config config) {
  config.scheme = Scheme::kPie;
  config.workload = &DataMiningWorkload();
  config.load = 0.7;
  config.flows = 40;
  config.seed = 9;
  config.queue_sample_period = Time::FromMicroseconds(25);
  config.max_sim_time = Time::Seconds(3);
  config.params.pie.alpha = 0.25;
  config.params.ecn_sharp.pst_interval = Time::FromMicroseconds(300);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::FromMicroseconds(1500);
  down.drop_queued = true;
  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.drop_prob = 0.01;
  loss.repeat = 2;
  loss.period = Time::FromMicroseconds(500);
  config.scenario.seed = 4;
  config.scenario.actions = {down, loss};
  config.cc_mix = 0.25;
  config.buffer_policy.kind = BufferPolicyKind::kDtHeadroom;
  config.buffer_policy.total_bytes = 900'000;
  config.buffer_policy.alpha = 2.0;
  config.buffer_policy.headroom_bytes = 3000;
  config.buffer_policy.priority_alpha = {0.5, 2.0};
  config.estimator = EcnEstimator::kSketch;
  config.sketch.enabled = true;
  config.sketch.memory_kb = 32;
  config.sketch.depth = 3;
  config.sketch.epoch = Time::Milliseconds(2);
  config.sketch.window_epochs = 4;
  config.sketch.decay = 0.5;
  config.sketch.queue_alpha = 0.25;
  config.sketch.heavy_hitters = 8;
  config.sketch.track_exact = true;
  return config;
}

LeafSpineConfig FullLeafSpine() {
  LeafSpineConfig topo;
  topo.spines = 3;
  topo.leaves = 2;
  topo.hosts_per_leaf = 5;
  topo.base_address = 100;
  topo.rate = DataRate::GigabitsPerSecond(40);
  topo.host_link_delay = Time::FromMicroseconds(7);
  topo.spine_link_delay = Time::FromMicroseconds(9);
  topo.host_buffer_bytes = 1 << 20;
  topo.tcp = FullTcp();
  return topo;
}

FatTreeConfig FullFatTree() {
  FatTreeConfig topo;
  topo.k = 6;
  topo.base_address = 50;
  topo.rate = DataRate::GigabitsPerSecond(25);
  topo.host_link_delay = Time::FromMicroseconds(3);
  topo.fabric_link_delay = Time::FromMicroseconds(4);
  topo.host_buffer_bytes = 1 << 21;
  topo.tcp = FullTcp();
  return topo;
}

// One config per family with every recorded field off its default.
std::vector<ExperimentConfig> FullExperiments() {
  auto dumbbell = WithFullCommon(DumbbellExperimentConfig());
  dumbbell.rtt_variation = 4.5;
  dumbbell.base_rtt = Time::FromMicroseconds(50);
  dumbbell.senders = 5;
  dumbbell.rate = DataRate::GigabitsPerSecond(25);
  dumbbell.tcp = FullTcp();
  dumbbell.long_flows = 3;
  dumbbell.rtt_profile = RttProfile::kLeafSpine;
  auto leaf_spine = WithFullCommon(LeafSpineExperimentConfig());
  leaf_spine.topo = FullLeafSpine();
  leaf_spine.max_extra_delay = Time::FromMicroseconds(90);
  auto fat_tree = WithFullCommon(FatTreeExperimentConfig());
  fat_tree.topo = FullFatTree();
  fat_tree.max_extra_delay = Time::FromMicroseconds(70);
  auto interdc = WithFullCommon(InterDcExperimentConfig());
  interdc.inter_workload = &WebSearchWorkload();
  interdc.inter_fraction = 0.3;
  interdc.topo.side_a.leaf_spine = FullLeafSpine();
  interdc.topo.side_b.kind = ComposedSideConfig::Kind::kFatTree;
  interdc.topo.side_b.fat_tree = FullFatTree();
  interdc.topo.border_links = 3;
  interdc.topo.border_rate = DataRate::GigabitsPerSecond(40);
  interdc.topo.border_rtt = Time::FromMicroseconds(3000);
  interdc.topo.attach_delay = Time::FromMicroseconds(2);
  interdc.topo.auto_address = false;
  interdc.topo.inter_rtt_fraction = 0.5;
  interdc.max_extra_delay = Time::FromMicroseconds(80);
  return {dumbbell, leaf_spine, fat_tree, interdc};
}

ExperimentConfig ReadBack(const std::string& text) {
  Json json;
  std::string error;
  EXPECT_TRUE(Json::Parse(text, &json, &error)) << error;
  ExperimentConfig config;
  EXPECT_TRUE(ExperimentConfigFromJson(json, &config, &error))
      << error << "\n" << text;
  return config;
}

// The record is complete: reading it back and writing it again reproduces
// it byte for byte, with every field set away from its default.
TEST(ConfigJsonTest, RecordsRoundTripByteForByte) {
  std::vector<ExperimentConfig> configs = TinyExperiments();
  for (const ExperimentConfig& config : FullExperiments()) {
    configs.push_back(config);
  }
  for (const ExperimentConfig& config : configs) {
    const std::string text = ToJson(config).Dump();
    EXPECT_EQ(ToJson(ReadBack(text)).Dump(), text);
  }
}

TEST(ConfigJsonTest, NewKeysAppearOnlyOffTheirDefaults) {
  const std::vector<ExperimentConfig> full = FullExperiments();
  const Json dumbbell = ToJson(full[0]);
  const std::vector<std::string> dumbbell_keys = Keys(dumbbell);
  EXPECT_EQ(std::vector<std::string>(dumbbell_keys.end() - 2,
                                     dumbbell_keys.end()),
            (std::vector<std::string>{"long_flows", "rtt_profile"}));
  EXPECT_EQ(Keys(*dumbbell.Find("tcp")).size(), 19u);
  EXPECT_EQ(Keys(*dumbbell.Find("sketch")).back(), "queue_alpha");
  EXPECT_EQ(Keys(*dumbbell.Find("buffer_policy")).back(), "priority_alpha");
  const std::vector<std::string> leaf_spine = Keys(ToJson(full[1]));
  EXPECT_EQ(std::vector<std::string>(leaf_spine.end() - 4, leaf_spine.end()),
            (std::vector<std::string>{"host_link_delay_us",
                                      "spine_link_delay_us",
                                      "host_buffer_bytes", "base_address"}));
  const std::vector<std::string> fat_tree = Keys(ToJson(full[2]));
  EXPECT_EQ(std::vector<std::string>(fat_tree.end() - 2, fat_tree.end()),
            (std::vector<std::string>{"host_buffer_bytes", "base_address"}));
  const Json interdc = ToJson(full[3]);
  EXPECT_EQ(Keys(interdc).back(), "auto_address");
  EXPECT_EQ(Keys(*interdc.Find("side_a")),
            (std::vector<std::string>{
                "kind", "spines", "leaves", "hosts_per_leaf", "rate_bps",
                "base_address", "tcp", "host_link_delay_us",
                "spine_link_delay_us", "host_buffer_bytes"}));
  EXPECT_EQ(Keys(*interdc.Find("side_b")),
            (std::vector<std::string>{
                "kind", "k", "rate_bps", "base_address", "tcp",
                "host_link_delay_us", "fabric_link_delay_us",
                "host_buffer_bytes"}));
  // Defaults write none of them (RecordKeysFollowTheFamilyOrder).
  EXPECT_EQ(Keys(*ToJson(TinyExperiments()[0]).Find("tcp")).size(), 7u);
}

// A read-back config runs the same experiment.
TEST(ConfigJsonTest, ReadBackConfigsRunTheSameExperiment) {
  const auto dump = [](const ExperimentResult& r) { return ToJson(r).Dump(); };
  for (const ExperimentConfig& config : TinyExperiments()) {
    EXPECT_EQ(dump(RunExperiment(ReadBack(ToJson(config).Dump()))),
              dump(RunExperiment(config)));
  }
}

TEST(ConfigJsonTest, PartialRecordsOverrideTheFamilyDefault) {
  FatTreeExperimentConfig expected;
  expected.topo.k = 4;
  expected.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  expected.buffer_policy.alpha = 0.5;
  const ExperimentConfig read = ReadBack(
      R"({"topology": "fattree", "k": 4,
          "buffer_policy": {"kind": "dt", "alpha": 0.5}})");
  EXPECT_EQ(ToJson(read).Dump(), ToJson(expected).Dump());
}

// "topology": "incast" names the §5.4 preset: its keys lower onto
// IncastDumbbell's burst and both of its seeds, and what is read (and
// written back) is that dumbbell.
TEST(ConfigJsonTest, IncastRecordsReadAsThePresetDumbbell) {
  DumbbellExperimentConfig expected = IncastDumbbell(4);
  expected.scheme = Scheme::kCodel;
  ScenarioAction& burst = expected.scenario.actions[0];
  burst.flows = 10;
  burst.bytes = 2000;
  burst.bytes_hi = 9000;
  burst.at = Time::Milliseconds(100);
  const ExperimentConfig read = ReadBack(
      R"({"topology": "incast", "scheme": "CoDel", "query_flows": 10,
          "query_min_bytes": 2000, "query_max_bytes": 9000,
          "burst_time_us": 100000, "seed": 4})");
  EXPECT_EQ(ToJson(read).Dump(), ToJson(expected).Dump());
}

// Fig. 10 on a data-mining background (instead of the preset's fixed
// elephants) is a record, not code: workload flows, no long flows, queue
// sampling and a sized burst.
TEST(ConfigJsonTest, DataMiningIncastRunsFromARecord) {
  const ExperimentConfig config = ReadBack(
      R"({"topology": "dumbbell", "workload": "datamining", "flows": 12,
          "senders": 16, "base_rtt_us": 80, "queue_sample_period_us": 10,
          "long_flows": 0, "rtt_profile": "leaf_spine",
          "scenario": {"seed": 2, "actions": [{"kind": "incast_burst",
            "at_us": 30000, "flows": 40, "bytes": 3000,
            "bytes_hi": 60000}]}})");
  const ExperimentResult r = RunExperiment(config);
  EXPECT_EQ(r.burst_fct.count, 40u);
  const Json json = ToJson(r);
  ASSERT_NE(json.Find("standing_queue_packets"), nullptr);
  EXPECT_EQ(json.Find("burst_queue_trace")->items().size(), 2501u);
}

// Each refusal starts with the path of the refused key.
TEST(ConfigJsonTest, ReaderRefusesMalformedRecords) {
  const std::pair<const char*, const char*> kBad[] = {
      {R"({"load": 0.5})", "topology must be one of"},
      {R"({"topology": "ring"})", "topology must be one of"},
      {R"({"topology": "dumbbell", "laod": 0.9})", "laod is not a known key"},
      {R"({"topology": "incast", "load": 0.9})", "load is not a known key"},
      {R"({"topology": "dumbbell", "flows": "20"})", "flows must be a whole"},
      {R"({"topology": "dumbbell", "flows": 2.5})", "flows must be a whole"},
      {R"({"topology": "dumbbell", "load": 0})",
       "load must be > 0 and finite, got 0"},
      {R"({"topology": "dumbbell", "rtt_variation": 0.5})",
       "rtt_variation must be >= 1"},
      {R"({"topology": "dumbbell", "workload": "custom"})",
       "workload must be one of websearch, datamining, got \"custom\" (a "
       "custom workload's CDF is not in the record)"},
      {R"({"topology": "dumbbell", "scheme": "ECN"})", "scheme must be one of"},
      {R"({"topology": "dumbbell", "tcp": {"mss": 0}})", "tcp.mss must be"},
      {R"({"topology": "dumbbell", "tcp": []})",
       "tcp must be an object, got an array"},
      {R"({"topology": "dumbbell", "params": {"pie_alpha": -1}})",
       "params.pie_alpha must be >= 0"},
      {R"({"topology": "fattree", "k": 5})", "k must be an even number"},
      {R"({"topology": "fattree", "host_link_delay_us": 1e300})",
       "host_link_delay_us must be >= 0 us and below 2^62 ns"},
      {R"({"topology": "interdc", "border_rtt_us": -1})",
       "border_rtt_us must lie in [0, 1e+07] us"},
      {R"({"topology": "interdc", "side_b": {"kind": "fattree",
           "spines": 2}})",
       "side_b.spines is not a known key"},
      {R"({"topology": "leafspine", "buffer_policy": {"alpha": 2}})",
       "buffer_policy.kind is required"},
      {R"({"topology": "leafspine", "buffer_policy": {"kind": "none"}})",
       "buffer_policy.kind must be one of static, dt, dt-headroom"},
      {R"({"topology": "leafspine", "estimator": "sketch"})",
       "estimator 'sketch' needs a sketch record"},
      {R"({"topology": "leafspine", "scenario": {"actions": [{}]}})",
       "scenario.actions[0].kind is required"},
      {R"({"topology": "incast", "query_min_bytes": 9,
           "query_max_bytes": 8})",
       "query_max_bytes must be >= query_min_bytes"},
  };
  for (const auto& [text, expected] : kBad) {
    Json json;
    ASSERT_TRUE(Json::Parse(text, &json)) << text;
    ExperimentConfig config;
    std::string error;
    EXPECT_FALSE(ExperimentConfigFromJson(json, &config, &error)) << text;
    EXPECT_EQ(error.find(expected), 0u) << error;
  }
}

// One --trace or --sketch spec alias: a term, the record key it sets and
// the value it stands for, and an out-of-range term.
struct AliasCase {
  const char* term;
  const char* key;
  Json value;
  const char* bad;
};

// Every spec alias reads as its record key set to the scaled value, and its
// out-of-range value is refused naming the alias.
TEST(ConfigJsonTest, SpecAliasesReadAsTheirRecordKeys) {
  const AliasCase kTrace[] = {
      {"events:4096", "ring_capacity", Json::UInt(4096), "events:0"},
      {"points:64", "max_series_points", Json::UInt(64), "points:16777217"},
      {"queue:off", "queue_series", Json::Bool(false), "queue:2"},
      {"flows:off", "flow_series", Json::Bool(false), "flows:maybe"},
  };
  for (const AliasCase& alias : kTrace) {
    TraceConfig spec;
    std::string error;
    ASSERT_TRUE(TraceConfigFromSpec(alias.term, &spec, &error)) << error;
    EXPECT_TRUE(spec.enabled);
    Json record = ToJson(TraceConfig{});
    record.Set(alias.key, alias.value);
    EXPECT_EQ(ToJson(spec).Dump(), record.Dump()) << alias.term;
    EXPECT_FALSE(TraceConfigFromSpec(alias.bad, &spec, &error));
    const std::string name(alias.term, std::strchr(alias.term, ':'));
    EXPECT_EQ(error.find(name + " must"), 0u) << error;
  }

  // decay is in percent: decay:70 is 70 / 100.0, the double 0.7 (not
  // 70 * 0.01, which is 0.7000000000000001).
  const AliasCase kSketch[] = {
      {"mem:32", "memory_kb", Json::UInt(32), "mem:1048577"},
      {"depth:3", "depth", Json::UInt(3), "depth:17"},
      {"epoch:2000", "epoch_us", Json::Num(2000), "epoch:9"},
      {"window:4", "window_epochs", Json::UInt(4), "window:1"},
      {"decay:70", "decay", Json::Num(0.7), "decay:101"},
      {"hh:0", "heavy_hitters", Json::UInt(0), "hh:1025"},
      {"exact:on", "track_exact", Json::Bool(true), "exact:1"},
  };
  for (const AliasCase& alias : kSketch) {
    SketchConfig spec;
    std::string error;
    ASSERT_TRUE(SketchConfigFromSpec(alias.term, &spec, &error)) << error;
    const Json sketch = Json::Object().Set(alias.key, alias.value);
    ExperimentConfig config;
    ASSERT_TRUE(ExperimentConfigFromJson(
        Json::Object()
            .Set("topology", Json::Str("dumbbell"))
            .Set("sketch", sketch),
        &config, &error))
        << error;
    const SketchConfig& read =
        std::get<DumbbellExperimentConfig>(config).sketch;
    EXPECT_TRUE(spec.enabled);
    EXPECT_EQ(ToJson(spec).Dump(), ToJson(read).Dump()) << alias.term;
    Json record = ToJson(SketchConfig{});
    record.Set(alias.key, alias.value);
    EXPECT_EQ(ToJson(spec).Dump(), record.Dump()) << alias.term;
    EXPECT_FALSE(SketchConfigFromSpec(alias.bad, &spec, &error));
    const std::string name(alias.term, std::strchr(alias.term, ':'));
    EXPECT_EQ(error.find(name + " must"), 0u) << error;
  }
  SketchConfig decay;
  ASSERT_TRUE(SketchConfigFromSpec("decay:70", &decay));
  EXPECT_EQ(decay.decay, 0.7);

  // A spec sets only aliased keys.
  SketchConfig sketch;
  std::string error;
  EXPECT_FALSE(SketchConfigFromSpec("queue_alpha:1", &sketch, &error));
  EXPECT_EQ(error, "queue_alpha is not a known key");
  EXPECT_FALSE(SketchConfigFromSpec("memory_kb:64", &sketch, &error));
  EXPECT_EQ(error, "memory_kb is not a known key");
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of every reader: each input is accepted or refused
// with a message, and nothing crashes (CI runs this under ASan+UBSan).
// ---------------------------------------------------------------------------

constexpr int kMutations = 2000;

Json Replacement(Rng& rng) {
  const Json kValues[] = {
      Json::Num(std::nan("")),  Json::Num(HUGE_VAL), Json::Num(-HUGE_VAL),
      Json::Num(1e300),         Json::Int(-1),       Json::Num(0.5),
      Json::UInt(UINT64_MAX),   Json::Str("x"),      Json::Bool(true),
      Json(),                   Json::Object(),      Json::Array(),
  };
  return kValues[rng.UniformInt(std::size(kValues))];
}

// `json` with one value somewhere inside dropped (an object member),
// retyped or set to an edge value.
Json Mutate(const Json& json, Rng& rng) {
  const std::size_t n =
      json.IsObject() ? json.members().size() : json.items().size();
  if (n == 0 || rng.UniformInt(4) == 0) return Replacement(rng);
  const std::size_t pick = rng.UniformInt(n);
  Json out = json.IsObject() ? Json::Object() : Json::Array();
  for (std::size_t i = 0; i < n; ++i) {
    if (json.IsArray()) {
      out.Push(i == pick ? Mutate(json.items()[i], rng) : json.items()[i]);
    } else if (i != pick) {
      out.Set(json.members()[i].first, json.members()[i].second);
    } else if (rng.UniformInt(4) != 0) {
      out.Set(json.members()[i].first, Mutate(json.members()[i].second, rng));
    }
  }
  return out;
}

// Mutates, then half the time truncates the text and parses it again.
template <typename Read>
void FuzzRecords(const std::vector<Json>& seeds, Read read) {
  Rng rng(2024);
  for (int i = 0; i < kMutations; ++i) {
    Json input = Mutate(seeds[rng.UniformInt(seeds.size())], rng);
    std::string error;
    if (rng.UniformInt(2) == 0) {
      const std::string text = input.Dump();
      if (!Json::Parse(text.substr(0, rng.UniformInt(text.size())), &input,
                       &error)) {
        EXPECT_FALSE(error.empty());
        continue;
      }
    }
    read(input);
  }
}

TEST(ConfigFuzzTest, ExperimentRecordsAreReadOrRefused) {
  std::vector<Json> seeds;
  for (const auto& family : {TinyExperiments(), FullExperiments()}) {
    for (const ExperimentConfig& config : family) {
      seeds.push_back(ToJson(config));
    }
  }
  ASSERT_TRUE(Json::Parse(
      R"({"topology": "incast", "scheme": "PIE", "query_flows": 20,
          "query_min_bytes": 2000, "query_max_bytes": 50000,
          "burst_time_us": 100000, "seed": 6, "sketch": {"depth": 3}})",
      &seeds.emplace_back()));
  int accepted = 0;
  FuzzRecords(seeds, [&accepted](const Json& input) {
    ExperimentConfig config;
    std::string error;
    if (!ExperimentConfigFromJson(input, &config, &error)) {
      EXPECT_FALSE(error.empty());
      return;
    }
    ++accepted;
    // What the reader accepts, the writer records faithfully.
    const std::string text = ToJson(config).Dump();
    EXPECT_EQ(ToJson(ReadBack(text)).Dump(), text);
  });
  EXPECT_GT(accepted, kMutations / 20);
}

TEST(ConfigFuzzTest, ScenarioScriptsAreReadOrRefused) {
  ScenarioScript script;
  script.seed = 3;
  for (int kind = 0;
       kind <= static_cast<int>(ScenarioActionKind::kReestimateEcnSharp);
       ++kind) {
    ScenarioAction action;
    action.kind = static_cast<ScenarioActionKind>(kind);
    action.gbps = 5.0;
    action.delay_us = 20.0;
    action.flows = 4;
    action.bytes = 3000;
    script.actions.push_back(action);
  }
  FuzzRecords({ToJson(script)}, [](const Json& input) {
    ScenarioScript parsed;
    std::string error;
    if (!ScenarioScriptFromJson(input, &parsed, &error)) {
      EXPECT_FALSE(error.empty());
    }
  });
}

// Spec strings: a number swapped for an edge value, a term dropped or
// doubled, or the text cut short.
std::string MutateSpec(const std::string& spec, Rng& rng) {
  static const char* kValues[] = {"nan", "inf", "-inf", "1e300", "-1", ""};
  std::vector<std::string> terms;
  for (std::size_t pos = 0; pos <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    terms.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  const std::size_t pick = rng.UniformInt(terms.size());
  switch (rng.UniformInt(4)) {
    case 0:
      terms[pick] = terms[pick].substr(0, terms[pick].find(':') + 1) +
                    kValues[rng.UniformInt(std::size(kValues))];
      break;
    case 1:
      terms.erase(terms.begin() + static_cast<std::ptrdiff_t>(pick));
      break;
    case 2:
      terms.push_back(terms[pick]);
      break;
    default:
      return spec.substr(0, rng.UniformInt(spec.size()));
  }
  std::string out;
  for (const std::string& term : terms) out += (out.empty() ? "" : ",") + term;
  return out;
}

TEST(ConfigFuzzTest, SpecStringsAreReadOrRefused) {
  Rng rng(7);
  for (int i = 0; i < kMutations; ++i) {
    std::string error;
    TraceConfig trace;
    if (!TraceConfigFromSpec(
            MutateSpec("events:1024,points:64,queue:off,flows:on", rng),
            &trace, &error)) {
      EXPECT_FALSE(error.empty());
    }
    error.clear();
    SketchConfig sketch;
    if (!SketchConfigFromSpec(
            MutateSpec("mem:32,depth:3,epoch:2000,window:4,decay:50,hh:8,"
                       "exact:on",
                       rng),
            &sketch, &error)) {
      EXPECT_FALSE(error.empty());
    }
  }
}

}  // namespace
}  // namespace ecnsharp

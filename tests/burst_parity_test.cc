// Golden byte-parity suite for the batched-burst + SoA hot path.
//
// The burst-drain port events, the in-flight queues (wires, delay lines,
// host netem delay) and the SoA hot-state layouts (ChipHotBlock,
// FlowHotArena) were introduced as pure data-plane refactors: with lanes
// off, every simulated result must be byte-identical to the legacy
// one-closure-per-packet scheme. This suite pins that across all four
// fabrics x {ECN#, DCTCP-tail, CoDel} under a churn scenario (loss
// injection, a link-delay shortening, an incast burst, a host delay drop to
// zero, a link flap with purge, and an ECN# re-estimate) by running each
// experiment twice — burst mode and legacy mode — and comparing the full
// serialized result JSON byte for byte.
//
// If one of these tests fails, the burst path stopped reserving order
// stamps at the legacy scheduling points; see net/in_flight_queue.h.
#include <string>

#include <gtest/gtest.h>

#include "harness/config_json.h"
#include "harness/experiment.h"
#include "net/event_mode.h"
#include "sim/time.h"

namespace ecnsharp {
namespace {

// Topology-agnostic churn: target -1 is the primary bottleneck everywhere,
// host 1 exists everywhere, and the incast burst converges on each
// topology's IncastTarget.
ScenarioScript ChurnScript() {
  ScenarioScript script;
  script.seed = 33;

  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.at = Time::Milliseconds(1);
  loss.target = -1;
  loss.drop_prob = 0.03;
  loss.corrupt_prob = 0.01;
  script.actions.push_back(loss);

  // Shortening a wire lets packets committed after it overtake those
  // already in flight.
  ScenarioAction link_delay;
  link_delay.kind = ScenarioActionKind::kSetLinkDelay;
  link_delay.at = Time::FromMicroseconds(1500);
  link_delay.target = -1;
  link_delay.delay_us = 0.2;
  script.actions.push_back(link_delay);

  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(2);
  burst.flows = 6;
  burst.bytes = 15000;
  script.actions.push_back(burst);

  // Host 1 drops its extra delay to zero: later sends go straight to the
  // NIC, ahead of packets still held by the old delay.
  ScenarioAction host_delay;
  host_delay.kind = ScenarioActionKind::kSetHostDelay;
  host_delay.at = Time::FromMicroseconds(2500);
  host_delay.target = 1;
  host_delay.delay_us = 0.0;
  script.actions.push_back(host_delay);

  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(3);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(3) + Time::FromMicroseconds(150);
  script.actions.push_back(up);

  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(4);
  script.actions.push_back(reest);
  return script;
}

// Runs `fn` (an experiment returning ExperimentResult) in both event modes
// and returns the two serialized results.
template <typename Fn>
std::pair<std::string, std::string> RunBothModes(Fn fn) {
  LegacyPerPacketEvents() = false;
  const std::string burst = ToJson(fn()).Dump();
  LegacyPerPacketEvents() = true;
  const std::string legacy = ToJson(fn()).Dump();
  LegacyPerPacketEvents() = false;
  return {burst, legacy};
}

class BurstParityTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(BurstParityTest, DumbbellChurnByteIdentical) {
  const auto run = [] {
    DumbbellExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunDumbbell(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, LeafSpineChurnByteIdentical) {
  const auto run = [] {
    LeafSpineExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.topo.spines = 2;
    config.topo.leaves = 2;
    config.topo.hosts_per_leaf = 4;
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunLeafSpine(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, FatTreeChurnByteIdentical) {
  const auto run = [] {
    FatTreeExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    config.topo.k = 4;
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunFatTree(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

TEST_P(BurstParityTest, InterDcChurnByteIdentical) {
  // Two small leaf-spines over 2 ms-RTT border links with DT shared buffers
  // and sketch-driven re-estimation: the WAN wires hold long in-flight
  // queues that the churn reorders.
  const auto run = [] {
    InterDcExperimentConfig config;
    config.scheme = BurstParityTest::GetParam();
    for (ComposedSideConfig* side :
         {&config.topo.side_a, &config.topo.side_b}) {
      side->leaf_spine.spines = 2;
      side->leaf_spine.leaves = 2;
      side->leaf_spine.hosts_per_leaf = 4;
    }
    config.topo.border_links = 2;
    config.topo.border_rtt = Time::Milliseconds(2);
    config.inter_fraction = 0.3;
    config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
    config.sketch.enabled = true;
    config.estimator = EcnEstimator::kSketch;
    config.flows = 60;
    config.seed = 11;
    config.scenario = ChurnScript();
    return RunInterDc(config);
  };
  const auto [burst, legacy] = RunBothModes(run);
  EXPECT_EQ(burst, legacy);
}

INSTANTIATE_TEST_SUITE_P(Schemes, BurstParityTest,
                         ::testing::Values(Scheme::kEcnSharp,
                                           Scheme::kDctcpRedTail,
                                           Scheme::kCodel),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           switch (info.param) {
                             case Scheme::kEcnSharp:
                               return std::string("EcnSharp");
                             case Scheme::kDctcpRedTail:
                               return std::string("DctcpTail");
                             default:
                               return std::string("Codel");
                           }
                         });

}  // namespace
}  // namespace ecnsharp

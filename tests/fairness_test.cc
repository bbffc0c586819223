// Convergence/fairness integration tests: competing DCTCP flows under each
// marking scheme share the bottleneck fairly (Jain index near 1).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/schemes.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "topo/dumbbell.h"

namespace ecnsharp {
namespace {

// N long-lived flows from N senders with EQUAL base RTTs; returns the Jain
// index of delivered bytes over the measurement window.
double FairnessUnder(Scheme scheme, std::size_t flows) {
  Simulator sim;
  DumbbellConfig config;
  config.senders = flows;
  config.base_rtt = Time::FromMicroseconds(80);
  const SchemeParams params = SimulationSchemeParams();
  Dumbbell topo(sim, config, FifoDiscFactory(scheme, params));
  // No netem extras: equal RTTs isolate the AQM's fairness behaviour.

  std::vector<TcpSender*> senders;
  for (std::size_t i = 0; i < flows; ++i) {
    senders.push_back(&topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 1ull << 40, nullptr));
  }
  sim.RunUntil(Time::Milliseconds(50));  // convergence
  std::vector<std::uint64_t> before;
  before.reserve(flows);
  for (auto* s : senders) before.push_back(s->bytes_acked());
  sim.RunUntil(Time::Milliseconds(250));
  std::vector<double> delivered;
  delivered.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    delivered.push_back(
        static_cast<double>(senders[i]->bytes_acked() - before[i]));
  }
  return JainIndex(delivered);
}

struct FairnessParam {
  Scheme scheme;
  std::size_t flows;
};

class FairnessTest : public ::testing::TestWithParam<FairnessParam> {};

TEST_P(FairnessTest, LongFlowsShareFairly) {
  const FairnessParam param = GetParam();
  EXPECT_GT(FairnessUnder(param.scheme, param.flows), 0.9)
      << SchemeName(param.scheme) << " with " << param.flows << " flows";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndFanIn, FairnessTest,
    ::testing::Values(FairnessParam{Scheme::kDctcpRedTail, 2},
                      FairnessParam{Scheme::kDctcpRedTail, 8},
                      FairnessParam{Scheme::kEcnSharp, 2},
                      FairnessParam{Scheme::kEcnSharp, 8},
                      FairnessParam{Scheme::kEcnSharpTofino, 4},
                      FairnessParam{Scheme::kTcn, 4},
                      FairnessParam{Scheme::kCodel, 4}),
    [](const ::testing::TestParamInfo<FairnessParam>& info) {
      std::string name = SchemeName(info.param.scheme);
      for (char& c : name) {
        if (c == '-' || c == '#') c = '_';
      }
      return name + "_x" + std::to_string(info.param.flows);
    });

TEST(FairnessTest, ThroughputConservedAcrossFlows) {
  // Total delivered bytes over the window ~ bottleneck capacity regardless
  // of the number of competing flows.
  Simulator sim;
  DumbbellConfig config;
  config.senders = 4;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SimulationSchemeParams()));
  std::vector<TcpSender*> senders;
  for (std::size_t i = 0; i < 4; ++i) {
    senders.push_back(&topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 1ull << 40, nullptr));
  }
  sim.RunUntil(Time::Milliseconds(50));
  std::uint64_t before = 0;
  for (auto* s : senders) before += s->bytes_acked();
  sim.RunUntil(Time::Milliseconds(150));
  std::uint64_t after = 0;
  for (auto* s : senders) after += s->bytes_acked();
  const double gbps = static_cast<double>(after - before) * 8.0 / 0.1 * 1e-9;
  EXPECT_GT(gbps, 8.5);
  EXPECT_LE(gbps, 10.0);
}

}  // namespace
}  // namespace ecnsharp

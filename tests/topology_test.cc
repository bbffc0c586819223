// Topology interface + ExperimentSession tests.
//
// The golden tests pin the exact results of all three runners, for every
// scheme family the paper compares, to the values the pre-ExperimentSession
// monoliths produced (captured at %.17g precision). Any change to the
// session's rng-draw order, event scheduling order, or run loop shows up
// here as a bit-level diff — the refactor's "byte-identical results"
// contract, kept enforced for future sessions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqm/dctcp_red.h"
#include "aqm/tcn.h"
#include "buffer/policies.h"
#include "core/ecn_sharp.h"
#include "core/equations.h"
#include "harness/experiment.h"
#include "harness/schemes.h"
#include "harness/session.h"
#include "harness/trace_export.h"
#include "hostpath/rtt_probe.h"
#include "runner/job.h"
#include "runner/json_export.h"
#include "runner/sweep.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sched/sp_queue_disc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/telemetry.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "topo/rtt_variation.h"
#include "topo/topology.h"
#include "trace/trace_recorder.h"

namespace ecnsharp {
namespace {

// Appends every egress port of `sw`, in port order.
void AppendPorts(std::vector<EgressPort*>& out, SwitchNode& sw) {
  for (std::size_t p = 0; p < sw.port_count(); ++p) out.push_back(&sw.port(p));
}

// Compares the whole bottleneck table with an explicit walk.
void ExpectBottlenecks(Topology& topo, const std::vector<EgressPort*>& walk) {
  ASSERT_EQ(topo.bottleneck_count(), walk.size());
  for (std::size_t j = 0; j < walk.size(); ++j) {
    EXPECT_EQ(&topo.bottleneck(j), walk[j]) << "bottleneck " << j;
  }
}

// Downs `switch_port` and host 1's NIC and offers each one packet: the
// link-down total counts exactly those two arrivals. HostBaseRtt stays the
// path RTT plus the host's current extra delay.
void ExpectDownedPortAccounting(Topology& topo, EgressPort& switch_port,
                                Time path_rtt) {
  EgressPort& nic = topo.host(1).nic();
  switch_port.LinkDown(/*drop_queued=*/false);
  nic.LinkDown(/*drop_queued=*/false);
  for (EgressPort* port : {&switch_port, &nic}) {
    auto pkt = std::make_unique<Packet>();
    pkt->size_bytes = 1500;
    port->Enqueue(std::move(pkt));
  }
  EXPECT_EQ(switch_port.counters().dropped_link_down, 1u);
  EXPECT_EQ(nic.counters().dropped_link_down, 1u);
  EXPECT_EQ(topo.TotalLinkDownDrops(), 2u);
  topo.host(1).set_extra_egress_delay(Time::FromMicroseconds(25));
  EXPECT_EQ(topo.HostBaseRtt(0), path_rtt);
  EXPECT_EQ(topo.HostBaseRtt(1), path_rtt + Time::FromMicroseconds(25));
}

// ---------------------------------------------------------------------------
// Topology interface on Dumbbell
// ---------------------------------------------------------------------------

TEST(DumbbellTopologyTest, EnumeratesSendersAsHosts) {
  Simulator sim;
  DumbbellConfig config;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  EXPECT_EQ(iface.host_count(), config.senders);
  for (std::size_t i = 0; i < config.senders; ++i) {
    EXPECT_EQ(&iface.host(i), &topo.sender_host(i));
    EXPECT_EQ(&iface.stack(i), &topo.sender_stack(i));
  }
  EXPECT_EQ(iface.ReferenceCapacity().bps(), config.rate.bps());
  EXPECT_EQ(iface.IncastTarget(), topo.receiver_address());
  // Burst senders round-robin over the sender set.
  EXPECT_EQ(&iface.IncastSender(0), &topo.sender_stack(0));
  EXPECT_EQ(&iface.IncastSender(config.senders), &topo.sender_stack(0));
  EXPECT_EQ(&iface.IncastSender(config.senders + 2), &topo.sender_stack(2));
}

TEST(DumbbellTopologyTest, ResolvesScenarioPortIds) {
  Simulator sim;
  DumbbellConfig config;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  EXPECT_EQ(iface.ResolvePort(-1), &topo.bottleneck_port());
  for (std::size_t i = 0; i < config.senders; ++i) {
    EXPECT_EQ(iface.ResolvePort(static_cast<int>(i)),
              &topo.sender_host(i).nic());
  }
  EXPECT_EQ(iface.ResolvePort(static_cast<int>(config.senders)), nullptr);

  ASSERT_EQ(iface.bottleneck_count(), 1u);
  EXPECT_EQ(&iface.bottleneck(0), &topo.bottleneck_port());
}

TEST(DumbbellTopologyTest, HostBaseRttIncludesExtras) {
  Simulator sim;
  DumbbellConfig config;
  config.senders = 3;
  Dumbbell topo(sim, config,
                FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  topo.SetSenderExtraDelays({Time::Zero(), Time::FromMicroseconds(30),
                             Time::FromMicroseconds(140)});
  Topology& iface = topo;
  EXPECT_EQ(iface.HostBaseRtt(0), config.base_rtt);
  EXPECT_EQ(iface.HostBaseRtt(1),
            config.base_rtt + Time::FromMicroseconds(30));
  EXPECT_EQ(iface.HostBaseRtt(2),
            config.base_rtt + Time::FromMicroseconds(140));
  ExpectDownedPortAccounting(iface, topo.bottleneck_port(), config.base_rtt);
}

// ---------------------------------------------------------------------------
// Topology interface on LeafSpine
// ---------------------------------------------------------------------------

LeafSpineConfig SmallFabric() {
  LeafSpineConfig config;
  config.spines = 2;
  config.leaves = 2;
  config.hosts_per_leaf = 3;
  return config;
}

TEST(LeafSpineTopologyTest, EnumeratesEverySwitchPortAsBottleneck) {
  Simulator sim;
  const LeafSpineConfig config = SmallFabric();
  LeafSpine topo(sim, config,
                 FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  EXPECT_EQ(iface.host_count(), 6u);
  // Each leaf: 3 down ports + 2 uplinks; each spine: 2 downlinks.
  const std::size_t expected = 2 * (3 + 2) + 2 * 2;
  ASSERT_EQ(iface.bottleneck_count(), expected);
  // Flattening is leaves then spines, each in port order.
  EXPECT_EQ(&iface.bottleneck(0), &topo.leaf(0).port(0));
  EXPECT_EQ(&iface.bottleneck(4), &topo.leaf(0).port(4));
  EXPECT_EQ(&iface.bottleneck(5), &topo.leaf(1).port(0));
  EXPECT_EQ(&iface.bottleneck(10), &topo.spine(0).port(0));
  EXPECT_EQ(&iface.bottleneck(13), &topo.spine(1).port(1));
  // The full order: every port of every leaf, then of every spine.
  std::vector<EgressPort*> walk;
  for (std::size_t l = 0; l < topo.leaf_count(); ++l) {
    AppendPorts(walk, topo.leaf(l));
  }
  for (std::size_t s = 0; s < topo.spine_count(); ++s) {
    AppendPorts(walk, topo.spine(s));
  }
  ExpectBottlenecks(iface, walk);
  ExpectDownedPortAccounting(iface, topo.spine(1).port(1),
                             Time::FromMicroseconds(80));
}

TEST(LeafSpineTopologyTest, ResolvesScenarioPortIds) {
  Simulator sim;
  const LeafSpineConfig config = SmallFabric();
  LeafSpine topo(sim, config,
                 FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // -1 = the canonical fabric bottleneck: leaf 0's first uplink.
  EXPECT_EQ(iface.ResolvePort(-1),
            &topo.leaf(0).port(config.hosts_per_leaf));
  // 0..host_count-1 = host NICs.
  for (std::size_t h = 0; h < iface.host_count(); ++h) {
    EXPECT_EQ(iface.ResolvePort(static_cast<int>(h)),
              &iface.host(h).nic());
  }
  // host_count.. = the flattened bottleneck set, then null past the end.
  const int base = static_cast<int>(iface.host_count());
  for (std::size_t b = 0; b < iface.bottleneck_count(); ++b) {
    EXPECT_EQ(iface.ResolvePort(base + static_cast<int>(b)),
              &iface.bottleneck(b));
  }
  EXPECT_EQ(
      iface.ResolvePort(base + static_cast<int>(iface.bottleneck_count())),
      nullptr);
}

TEST(LeafSpineTopologyTest, BaseRttAndCapacityFollowTheFabric) {
  Simulator sim;
  const LeafSpineConfig config = SmallFabric();
  LeafSpine topo(sim, config,
                 FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // Cross-rack: 2 host hops + 2 fabric hops each way at 10 us per hop.
  EXPECT_EQ(iface.HostBaseRtt(0), Time::FromMicroseconds(80));
  topo.host(1).set_extra_egress_delay(Time::FromMicroseconds(55));
  EXPECT_EQ(iface.HostBaseRtt(1), Time::FromMicroseconds(135));
  // Load is defined against the aggregate access-link rate.
  EXPECT_EQ(iface.ReferenceCapacity().bps(),
            config.rate.bps() * static_cast<std::int64_t>(6));
}

TEST(LeafSpineTopologyTest, TotalBottleneckStatsSumsAllSwitchQueues) {
  Simulator sim;
  LeafSpine topo(sim, SmallFabric(),
                 FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  const QueueDiscStats stats = topo.TotalBottleneckStats();
  EXPECT_EQ(stats.enqueued, 0u);
  EXPECT_EQ(stats.dropped_overflow, 0u);
  EXPECT_EQ(stats.ce_marked, 0u);
  EXPECT_EQ(topo.TotalLinkDownDrops(), 0u);
}

// ---------------------------------------------------------------------------
// Topology interface on FatTree
// ---------------------------------------------------------------------------

FatTreeConfig SmallFatTree() {
  FatTreeConfig config;
  config.k = 4;
  return config;
}

TEST(FatTreeTopologyTest, BuildsKaryStructure) {
  Simulator sim;
  FatTree topo(sim, SmallFatTree(),
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // k=4: 4 pods x (2 edges + 2 aggs), 4 cores, 16 hosts.
  EXPECT_EQ(iface.host_count(), 16u);
  EXPECT_EQ(topo.pod_count(), 4u);
  EXPECT_EQ(topo.edge_count(), 8u);
  EXPECT_EQ(topo.agg_count(), 8u);
  EXPECT_EQ(topo.core_count(), 4u);
  EXPECT_EQ(topo.hosts_per_edge(), 2u);
  EXPECT_EQ(topo.hosts_per_pod(), 4u);
  EXPECT_EQ(topo.PodOfHost(0), 0u);
  EXPECT_EQ(topo.PodOfHost(5), 1u);
  EXPECT_EQ(topo.PodOfHost(15), 3u);
  EXPECT_EQ(topo.EdgeOfHost(3), 1u);

  // Every switch egress port is a bottleneck: 5k^3/4 = 80 at k=4,
  // flattened edges -> aggs -> cores, each in port order.
  ASSERT_EQ(iface.bottleneck_count(), 80u);
  EXPECT_EQ(&iface.bottleneck(0), &topo.edge(0).port(0));
  EXPECT_EQ(&iface.bottleneck(4), &topo.edge(1).port(0));
  EXPECT_EQ(&iface.bottleneck(32), &topo.agg(0).port(0));
  EXPECT_EQ(&iface.bottleneck(64), &topo.core(0).port(0));
  EXPECT_EQ(&iface.bottleneck(79), &topo.core(3).port(3));

  const QueueDiscStats stats = topo.TotalBottleneckStats();
  EXPECT_EQ(stats.enqueued, 0u);
  EXPECT_EQ(topo.TotalLinkDownDrops(), 0u);

  // The full order: every port of every edge, then agg, then core.
  std::vector<EgressPort*> walk;
  for (std::size_t i = 0; i < topo.edge_count(); ++i) {
    AppendPorts(walk, topo.edge(i));
  }
  for (std::size_t i = 0; i < topo.agg_count(); ++i) {
    AppendPorts(walk, topo.agg(i));
  }
  for (std::size_t i = 0; i < topo.core_count(); ++i) {
    AppendPorts(walk, topo.core(i));
  }
  ExpectBottlenecks(iface, walk);
  ExpectDownedPortAccounting(iface, topo.agg(3).port(2),
                             Time::FromMicroseconds(120));
}

TEST(FatTreeTopologyTest, ResolvesScenarioPortIds) {
  Simulator sim;
  FatTree topo(sim, SmallFatTree(),
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // -1 = the canonical fabric bottleneck: edge 0's first uplink (ports
  // 0..k/2-1 are host down ports, k/2.. are uplinks).
  EXPECT_EQ(iface.ResolvePort(-1), &topo.edge(0).port(topo.hosts_per_edge()));
  for (std::size_t h = 0; h < iface.host_count(); ++h) {
    EXPECT_EQ(iface.ResolvePort(static_cast<int>(h)), &iface.host(h).nic());
  }
  const int base = static_cast<int>(iface.host_count());
  for (std::size_t b = 0; b < iface.bottleneck_count(); ++b) {
    EXPECT_EQ(iface.ResolvePort(base + static_cast<int>(b)),
              &iface.bottleneck(b));
  }
  EXPECT_EQ(
      iface.ResolvePort(base + static_cast<int>(iface.bottleneck_count())),
      nullptr);
  // The diagnostic names the whole valid range for scenario authors.
  EXPECT_NE(iface.DescribePortTargets().find("0..15"), std::string::npos);
  EXPECT_NE(iface.DescribePortTargets().find("16..95"), std::string::npos);
}

TEST(FatTreeTopologyTest, BaseRttAndCapacityFollowTheFabric) {
  Simulator sim;
  FatTree topo(sim, SmallFatTree(),
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // Inter-pod: 2 host hops + 4 fabric hops each way at 10 us per hop.
  EXPECT_EQ(iface.HostBaseRtt(0), Time::FromMicroseconds(120));
  topo.host(2).set_extra_egress_delay(Time::FromMicroseconds(75));
  EXPECT_EQ(iface.HostBaseRtt(2), Time::FromMicroseconds(195));
  EXPECT_EQ(iface.ReferenceCapacity().bps(),
            SmallFatTree().rate.bps() * static_cast<std::int64_t>(16));
}

TEST(FatTreeTopologyTest, SampleFlowPairMixesPodsAndNeverSelfPairs) {
  Simulator sim;
  FatTree topo(sim, SmallFatTree(),
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  Rng rng(12345);
  std::size_t inter_pod = 0;
  std::size_t intra_pod = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto [src, dst] = iface.SampleFlowPair(rng);
    ASSERT_NE(src, nullptr);
    const std::uint32_t src_addr = src->host().address();
    ASSERT_NE(src_addr, dst);  // never a self-pair
    ASSERT_LT(dst, iface.host_count());
    if (topo.PodOfHost(src_addr) == topo.PodOfHost(dst)) {
      ++intra_pod;
    } else {
      ++inter_pod;
    }
  }
  // Uniform pairs: ~3/16 of ordered pairs stay inside one pod at k=4.
  EXPECT_GT(intra_pod, 200u);
  EXPECT_GT(inter_pod, 1200u);
}

TEST(FatTreeTopologyTest, IncastConvergesOnHostZero) {
  Simulator sim;
  FatTree topo(sim, SmallFatTree(),
               FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  EXPECT_EQ(iface.IncastTarget(), iface.host(0).address());
  // Senders round-robin over hosts 1..N-1 (never the target itself).
  EXPECT_EQ(&iface.IncastSender(0), &iface.stack(1));
  EXPECT_EQ(&iface.IncastSender(14), &iface.stack(15));
  EXPECT_EQ(&iface.IncastSender(15), &iface.stack(1));
}

// ReestimateEcnSharp must silently skip queues that are not running ECN#.
TEST(ReestimateTest, IgnoresNonEcnSharpQueues) {
  Simulator sim;
  LeafSpine topo(sim, SmallFabric(),
                 FifoDiscFactory(Scheme::kDctcpRedTail, SchemeParams()));
  ReestimateEcnSharp(topo);  // must not crash or reconfigure anything
  EXPECT_EQ(topo.TotalBottleneckStats().enqueued, 0u);
}

// A re-estimation action reaches the ECN# instance of every service class
// of a multi-class bottleneck, not only FIFO bottlenecks.
TEST(ReestimateTest, ReconfiguresEcnSharpInEveryDwrrClass) {
  ExperimentSessionConfig config;
  config.rtt_assignment = ExperimentSessionConfig::RttAssignment::kQuantiles;
  config.max_rtt_extra = Time::FromMicroseconds(160);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(1);
  config.scenario.actions.push_back(reest);
  ExperimentSession session(config);
  std::vector<const EcnSharpAqm*> aqms;
  Dumbbell topo(session.sim(), DumbbellConfig(), [&aqms](BufferPolicy*) {
    std::vector<DwrrQueueDisc::ClassConfig> classes;
    for (const std::uint32_t w : {2u, 1u, 1u}) {
      auto aqm = std::make_unique<EcnSharpAqm>(EcnSharpConfig());
      aqms.push_back(aqm.get());
      classes.push_back({w, std::move(aqm)});
    }
    return std::make_unique<DwrrQueueDisc>(1ull << 24, std::move(classes));
  });
  session.Bind(topo);
  session.Run();
  ASSERT_EQ(session.Result().scenario_actions, 1u);

  std::vector<double> rtts_us;
  topo.AppendRttSamplesUs(rtts_us);
  const RttStats stats = ComputeRttStats(std::move(rtts_us));
  const EcnSharpConfig expected = RuleOfThumbConfig(
      Time::FromMicroseconds(stats.p90_us),
      Time::FromMicroseconds(stats.mean_us), /*lambda=*/1.0);
  ASSERT_NE(expected.ins_target, EcnSharpConfig().ins_target);
  ASSERT_EQ(aqms.size(), 3u);
  for (std::size_t c = 0; c < aqms.size(); ++c) {
    EXPECT_EQ(aqms[c]->config().ins_target, expected.ins_target)
        << "class " << c;
    EXPECT_EQ(aqms[c]->config().pst_target, expected.pst_target)
        << "class " << c;
  }
}

// ---------------------------------------------------------------------------
// Golden parity: the ExperimentSession reproduces the pre-refactor runners
// bit-for-bit. Values captured from the monolithic implementations.
// ---------------------------------------------------------------------------

struct FctGolden {
  Scheme scheme;
  double overall_avg;
  double overall_p99;
  double short_avg;
  std::size_t completed;
  std::uint64_t timeouts;
  std::uint64_t ce_marked;
  std::uint64_t drops;
};

void ExpectFctGolden(const ExperimentResult& r, const FctGolden& g) {
  SCOPED_TRACE(SchemeName(g.scheme));
  EXPECT_DOUBLE_EQ(r.overall.avg_us, g.overall_avg);
  EXPECT_DOUBLE_EQ(r.overall.p99_us, g.overall_p99);
  EXPECT_DOUBLE_EQ(r.short_flows.avg_us, g.short_avg);
  EXPECT_EQ(r.flows_completed, g.completed);
  EXPECT_EQ(r.timeouts, g.timeouts);
  EXPECT_EQ(r.bottleneck.ce_marked, g.ce_marked);
  EXPECT_EQ(r.bottleneck.dropped_overflow, g.drops);
}

TEST(GoldenParityTest, DumbbellMatchesPreSessionResults) {
  const FctGolden kGolden[] = {
      {Scheme::kEcnSharp, 416.2444666666666, 3276.7350000000001,
       184.21591089108904, 150, 0, 1624, 33},
      {Scheme::kDctcpRedTail, 411.25921999999991, 3276.7350000000001,
       185.22023762376233, 150, 0, 1579, 33},
      {Scheme::kCodel, 412.52281333333326, 3276.7350000000001,
       184.5260792079207, 150, 0, 82, 33},
  };
  for (const FctGolden& g : kGolden) {
    DumbbellExperimentConfig config;
    config.scheme = g.scheme;
    config.flows = 150;
    config.load = 0.8;
    config.seed = 99;
    ExpectFctGolden(RunDumbbell(config), g);
  }
}

TEST(GoldenParityTest, LeafSpineMatchesPreSessionResults) {
  // Re-goldened when SelectEcmp switched to the splitmix64 finalizer: the
  // multi-path leaf-spine picks different (still valid) uplinks per flow, so
  // every pinned double shifted once. Dumbbell/incast goldens were unchanged
  // (single-candidate ECMP never reaches the hash).
  const FctGolden kGolden[] = {
      {Scheme::kEcnSharp, 542.41020000000003, 3312.739, 255.53313333333335,
       80, 0, 704, 0},
      {Scheme::kDctcpRedTail, 534.14081250000004, 3346.3389999999999,
       260.62860000000001, 80, 0, 721, 0},
      {Scheme::kCodel, 522.57607499999995, 3311.5390000000002,
       238.6144333333333, 80, 0, 29, 0},
  };
  for (const FctGolden& g : kGolden) {
    LeafSpineExperimentConfig config;
    config.scheme = g.scheme;
    config.params = SimulationSchemeParams();
    config.topo.spines = 2;
    config.topo.leaves = 2;
    config.topo.hosts_per_leaf = 4;
    config.flows = 80;
    config.load = 0.4;
    config.seed = 7;
    ExpectFctGolden(RunLeafSpine(config), g);
  }
}

struct IncastGolden {
  Scheme scheme;
  double query_avg;
  double query_p99;
  double standing;
  std::uint32_t max_queue;
  std::uint64_t drops;
  std::uint64_t total_drops;
  std::size_t completed;
  std::uint64_t timeouts;
  std::size_t trace_samples;
};

TEST(GoldenParityTest, IncastMatchesPreSessionResults) {
  const IncastGolden kGolden[] = {
      {Scheme::kEcnSharp, 1051.6368, 1776.8779999999999, 24.323353293413174,
       207, 0, 0, 30, 0, 2501},
      {Scheme::kDctcpRedTail, 2551.3436999999999, 4081.9100000000003,
       176.19161676646706, 265, 0, 91, 30, 0, 2501},
      {Scheme::kCodel, 1109.9734666666666, 1713.5889999999999,
       28.926147704590818, 225, 0, 0, 30, 0, 2501},
  };
  for (const IncastGolden& g : kGolden) {
    SCOPED_TRACE(SchemeName(g.scheme));
    IncastExperimentConfig config;
    config.scheme = g.scheme;
    config.senders = 8;
    config.long_flows = 2;
    config.query_flows = 30;
    config.seed = 3;
    const IncastResult r = RunIncast(config);
    EXPECT_DOUBLE_EQ(r.query_fct.avg_us, g.query_avg);
    EXPECT_DOUBLE_EQ(r.query_fct.p99_us, g.query_p99);
    EXPECT_DOUBLE_EQ(r.standing_queue_packets, g.standing);
    EXPECT_EQ(r.max_queue_packets, g.max_queue);
    EXPECT_EQ(r.drops, g.drops);
    EXPECT_EQ(r.total_drops, g.total_drops);
    EXPECT_EQ(r.queries_completed, g.completed);
    EXPECT_EQ(r.query_timeouts, g.timeouts);
    EXPECT_EQ(r.queue_trace.size(), g.trace_samples);
  }
}

// The buffer-policy subsystem must be invisible at defaults: a topology
// built with no policy configured hands the disc factory no pool, reports
// no pools, and reproduces the FCTs of the per-port-buffer constructor the
// topologies had before pools existed (pinned here from that constructor).

TEST(GoldenParityTest, DumbbellPoolAwareConstructorWithoutPolicyMatchesLegacy) {
  Simulator sim;
  Dumbbell topo(sim, DumbbellConfig(), [](BufferPolicy* pool) {
    EXPECT_EQ(pool, nullptr);
    return MakeFifoDisc(Scheme::kEcnSharp, SchemeParams(), pool);
  });
  EXPECT_EQ(topo.buffer_pool_count(), 0u);
  EXPECT_EQ(topo.buffer_pool(topo.buffer_pool_count()), nullptr);
  std::vector<double> fcts(topo.sender_count(), 0.0);
  for (std::size_t i = 0; i < topo.sender_count(); ++i) {
    topo.sender_stack(i).StartFlow(
        topo.receiver_address(), 100'000 + 50'000 * i,
        [&fcts, i](const FlowRecord& r) {
          fcts[i] = r.Fct().ToMicroseconds();
        });
  }
  sim.RunUntil(Time::Seconds(5));
  const std::vector<double> legacy = {609.504,  888.8,    1081.984, 1241.936,
                                      1378.08,  1489.856, 1549.44};
  ASSERT_EQ(fcts.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(fcts[i], legacy[i]) << "sender " << i;
  }
}

TEST(GoldenParityTest, FatTreePoolAwareConstructorWithoutPolicyMatchesLegacy) {
  Simulator sim;
  FatTreeConfig config;
  config.k = 4;
  FatTree topo(sim, config, [](BufferPolicy* pool) {
    EXPECT_EQ(pool, nullptr);
    return MakeFifoDisc(Scheme::kEcnSharp, SchemeParams(), pool);
  });
  EXPECT_EQ(topo.buffer_pool_count(), 0u);
  EXPECT_EQ(topo.buffer_pool(topo.buffer_pool_count()), nullptr);
  // Cross-pod pairs so flows traverse edge, agg and core discs.
  const std::size_t n = topo.host_count();
  std::vector<double> fcts(n, 0.0);
  for (std::size_t src = 0; src < n; ++src) {
    const auto dst = static_cast<std::uint32_t>((src + n / 2) % n);
    topo.stack(src).StartFlow(dst, 50'000, [&fcts, src](const FlowRecord& r) {
      fcts[src] = r.Fct().ToMicroseconds();
    });
  }
  sim.RunUntil(Time::Seconds(5));
  const std::vector<double> legacy = {
      390.032, 391.088, 403.36,  401.84,  397.504, 393.584, 389.984, 388.784,
      399.024, 402.624, 388.784, 395.984, 394.784, 396.304, 394.784, 396.304};
  ASSERT_EQ(fcts.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_DOUBLE_EQ(fcts[i], legacy[i]) << "host " << i;
  }
}

// Explicitly spelling out the defaults (cc_mix=0, policy=none) must be
// indistinguishable from leaving them untouched — the golden FCT numbers
// pinned above remain in force with the new config fields present.
TEST(GoldenParityTest, ExplicitDefaultCcMixAndPolicyKeepLeafSpineGolden) {
  LeafSpineExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.params = SimulationSchemeParams();
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 80;
  config.load = 0.4;
  config.seed = 7;
  config.cc_mix = 0.0;
  config.buffer_policy.kind = BufferPolicyKind::kNone;
  config.buffer_policy.alpha = 2.0;  // parameters without a kind are inert
  const ExperimentResult r = RunLeafSpine(config);
  EXPECT_DOUBLE_EQ(r.overall.avg_us, 542.41020000000003);
  EXPECT_DOUBLE_EQ(r.overall.p99_us, 3312.739);
  EXPECT_EQ(r.flows_completed, 80u);
  EXPECT_EQ(r.cubic_fct.count, 0u);
  EXPECT_EQ(r.newreno_fct.count, 0u);
}

// ---------------------------------------------------------------------------
// Scheduler golden parity: full dumbbell runs through DWRR, strict priority
// and a pooled FIFO, pinned by a digest over every flow record, the
// bottleneck's QueueDiscStats and each class's occupancy sampled every
// 10 us. The per-class admission/AQM/accounting core these discs share must
// reproduce them bit for bit.
// ---------------------------------------------------------------------------

// FNV-1a over 64-bit words.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const QueueSnapshot& s) {
    Add(static_cast<std::uint64_t>(s.packets));
    Add(s.bytes);
  }
};

struct SchedGolden {
  std::uint64_t digest;
  // Readable anchors next to the digest.
  std::uint64_t enqueued;
  std::uint64_t ce_marked;
  std::uint64_t dropped_overflow;
  std::uint64_t purged;
  std::size_t completed;
};

// The fig13 shape scaled down to ~10 ms: three staggered 3 MB elephants
// (sender i in class long_classes[i]), 80 short probes in random classes,
// and a purging flap of the bottleneck mid-run. `sample` folds the disc's
// per-class occupancy into the digest.
SchedGolden RunSchedulerDumbbell(
    const DumbbellConfig& config, const DiscFactory& make_disc,
    const std::uint8_t (&long_classes)[3],
    const std::function<void(const QueueDisc&, Fnv64&)>& sample) {
  Simulator sim;
  Dumbbell topo(sim, config, make_disc);
  topo.SetSenderExtraDelays(
      RttExtraQuantiles(config.senders, Time::FromMicroseconds(160)));
  const std::uint32_t receiver = topo.receiver_address();
  Fnv64 digest;
  std::size_t completed = 0;
  const auto record = [&digest, &completed](const FlowRecord& r) {
    ++completed;
    digest.Add(r.size_bytes);
    digest.Add(r.start_time.ToMicroseconds());
    digest.Add(r.Fct().ToMicroseconds());
    digest.Add(static_cast<std::uint64_t>(r.timeouts));
  };
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::uint8_t cls = long_classes[i];
    sim.ScheduleAt(Time::FromMicroseconds(500) * i,
                   [&topo, &record, i, cls, receiver] {
                     topo.sender_stack(i).StartFlow(receiver, 3'000'000,
                                                    record, cls);
                   });
  }
  Rng rng(17);
  Time at = Time::Milliseconds(1);
  for (int p = 0; p < 80; ++p) {
    at += Time::FromSeconds(rng.Exponential(100e-6));
    const std::size_t sender = 3 + rng.UniformInt(4);
    const auto cls = static_cast<std::uint8_t>(rng.UniformInt(3));
    const std::uint64_t size = 3000 + rng.UniformInt(57001);
    sim.ScheduleAt(at, [&topo, &record, sender, cls, size, receiver] {
      topo.sender_stack(sender).StartFlow(receiver, size, record, cls);
    });
  }
  EgressPort& port = topo.bottleneck_port();
  sim.ScheduleAt(Time::Milliseconds(6), [&port] { port.LinkDown(true); });
  sim.ScheduleAt(Time::Milliseconds(6) + Time::FromMicroseconds(100),
                 [&port] { port.LinkUp(); });
  std::function<void()> tick = [&] {
    digest.Add(port.queue_disc().Snapshot());
    sample(port.queue_disc(), digest);
    if (sim.Now() < Time::Milliseconds(20)) {
      sim.ScheduleAt(sim.Now() + Time::FromMicroseconds(10), tick);
    }
  };
  sim.ScheduleAt(Time::Zero(), tick);
  sim.RunUntil(Time::Milliseconds(200));

  const QueueDiscStats& s = port.queue_disc().stats();
  for (const std::uint64_t v : {s.enqueued, s.dequeued, s.dropped_overflow,
                                s.dropped_aqm, s.purged, s.ce_marked}) {
    digest.Add(v);
  }
  return SchedGolden{digest.h, s.enqueued, s.ce_marked, s.dropped_overflow,
                     s.purged, completed};
}

void ExpectSchedGolden(const SchedGolden& r, const SchedGolden& g) {
  EXPECT_EQ(r.digest, g.digest);
  EXPECT_EQ(r.enqueued, g.enqueued);
  EXPECT_EQ(r.ce_marked, g.ce_marked);
  EXPECT_EQ(r.dropped_overflow, g.dropped_overflow);
  EXPECT_EQ(r.purged, g.purged);
  EXPECT_EQ(r.completed, g.completed);
}

template <typename Disc>
void SampleClasses(const QueueDisc& disc, Fnv64& digest) {
  const auto& typed = dynamic_cast<const Disc&>(disc);
  for (std::size_t c = 0; c < typed.class_count(); ++c) {
    digest.Add(typed.ClassSnapshot(c));
  }
}

DumbbellConfig SchedulerDumbbell() {
  DumbbellConfig config;
  config.base_rtt = Time::FromMicroseconds(80);
  return config;
}

// Weights 2:1:1 with one AQM per class from `make_aqm` (null = none).
DiscFactory DwrrFactory(
    std::function<std::unique_ptr<AqmPolicy>()> make_aqm,
    std::uint64_t mq_ecn_bytes = 0) {
  return [make_aqm, mq_ecn_bytes](BufferPolicy*) {
    std::vector<DwrrQueueDisc::ClassConfig> classes;
    for (const std::uint32_t w : {2u, 1u, 1u}) {
      classes.push_back({w, make_aqm != nullptr ? make_aqm() : nullptr});
    }
    auto disc = std::make_unique<DwrrQueueDisc>(
        SimulationSchemeParams().buffer_bytes, std::move(classes));
    if (mq_ecn_bytes != 0) disc->EnableMqEcn(mq_ecn_bytes);
    return disc;
  };
}

// The queue-length threshold equivalent to ECN#'s ins_target at 10 Gbps.
std::uint64_t SchedulerKBytes() {
  return IdealMarkingThresholdBytes(
      1.0, DataRate::GigabitsPerSecond(10),
      SimulationSchemeParams().ecn_sharp.ins_target);
}

constexpr std::uint8_t kOneLongPerClass[3] = {0, 1, 2};

TEST(SchedulerGoldenTest, DwrrEcnSharpPerClass) {
  const EcnSharpConfig ecn = SimulationSchemeParams().ecn_sharp;
  ExpectSchedGolden(
      RunSchedulerDumbbell(
          SchedulerDumbbell(),
          DwrrFactory([ecn] { return std::make_unique<EcnSharpAqm>(ecn); }),
          kOneLongPerClass, SampleClasses<DwrrQueueDisc>),
      {7718619593503371321ull, 8235, 2287, 67, 48, 83});
}

TEST(SchedulerGoldenTest, DwrrTcnPerClass) {
  const Time target = SimulationSchemeParams().tcn_threshold;
  ExpectSchedGolden(
      RunSchedulerDumbbell(
          SchedulerDumbbell(),
          DwrrFactory([target] { return std::make_unique<TcnAqm>(target); }),
          kOneLongPerClass, SampleClasses<DwrrQueueDisc>),
      {14998547415383242704ull, 8154, 2514, 0, 52, 83});
}

TEST(SchedulerGoldenTest, DwrrMqEcn) {
  ExpectSchedGolden(
      RunSchedulerDumbbell(SchedulerDumbbell(),
                           DwrrFactory(nullptr, SchedulerKBytes()),
                           kOneLongPerClass, SampleClasses<DwrrQueueDisc>),
      {18261262052643292387ull, 8610, 1898, 463, 121, 83});
}

// DCTCP-RED classes: threshold marking through AllowEnqueue.
TEST(SchedulerGoldenTest, DwrrDctcpRedPerClass) {
  const std::uint64_t k = SchedulerKBytes();
  ExpectSchedGolden(
      RunSchedulerDumbbell(
          SchedulerDumbbell(),
          DwrrFactory([k] { return std::make_unique<DctcpRedAqm>(k); }),
          kOneLongPerClass, SampleClasses<DwrrQueueDisc>),
      {14831641337934183787ull, 8637, 2425, 636, 14, 83});
}

// Strict priority with the elephants in the lowest class, as deployed.
TEST(SchedulerGoldenTest, StrictPriorityEcnSharp) {
  const EcnSharpConfig ecn = SimulationSchemeParams().ecn_sharp;
  const DiscFactory make_disc = [ecn](BufferPolicy*) {
    std::vector<SpQueueDisc::ClassConfig> classes;
    for (int i = 0; i < 3; ++i) {
      classes.push_back({std::make_unique<EcnSharpAqm>(ecn)});
    }
    return std::make_unique<SpQueueDisc>(SimulationSchemeParams().buffer_bytes,
                                         std::move(classes));
  };
  const std::uint8_t bulk_lowest[3] = {2, 2, 2};
  ExpectSchedGolden(RunSchedulerDumbbell(SchedulerDumbbell(), make_disc,
                                         bulk_lowest,
                                         SampleClasses<SpQueueDisc>),
                    {11622338899489199845ull, 8147, 1928, 0, 40, 83});
}

// ECN# on a FIFO drawing from a small Dynamic Threshold pool (overflow
// refusals come from the pool, not a static capacity).
TEST(SchedulerGoldenTest, FifoEcnSharpOnDynamicThresholdPool) {
  DumbbellConfig config = SchedulerDumbbell();
  config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  config.buffer_policy.total_bytes = 300'000;
  config.buffer_policy.alpha = 0.5;
  ExpectSchedGolden(
      RunSchedulerDumbbell(
          config, FifoDiscFactory(Scheme::kEcnSharp, SimulationSchemeParams()),
          kOneLongPerClass, [](const QueueDisc&, Fnv64&) {}),
      {7835212190695676408ull, 8304, 24, 597, 11, 83});
}

// ---------------------------------------------------------------------------
// Session-level behavior the old runners got wrong or lacked
// ---------------------------------------------------------------------------

// Satellite fix: RunLeafSpine used to drop timeouts and the queue-occupancy
// metrics on the floor. With sampling enabled the monitors now cover every
// switch egress port.
TEST(LeafSpineSessionTest, ReportsQueueMetricsWhenSamplingEnabled) {
  LeafSpineExperimentConfig config;
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 60;
  config.load = 0.6;
  config.seed = 11;
  config.queue_sample_period = Time::FromMicroseconds(100);
  const ExperimentResult r = RunLeafSpine(config);
  EXPECT_EQ(r.flows_completed, 60u);
  // Something must have queued somewhere at 60% load.
  EXPECT_GT(r.max_queue_packets, 0u);
  EXPECT_GT(r.avg_queue_packets, 0.0);
  // The full drop/mark accounting now covers the whole fabric.
  EXPECT_GT(r.bottleneck.enqueued, 0u);
  EXPECT_EQ(r.bottleneck.enqueued, r.bottleneck.dequeued);
}

// Satellite fix: sampling disabled means no monitor exists at all, and the
// queue fields stay zero.
TEST(LeafSpineSessionTest, NoSamplingMeansNoQueueMetrics) {
  LeafSpineExperimentConfig config;
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 40;
  config.seed = 11;
  const ExperimentResult r = RunLeafSpine(config);
  EXPECT_EQ(r.avg_queue_packets, 0.0);
  EXPECT_EQ(r.max_queue_packets, 0u);
}

// The same scenario script must run unmodified on either topology — the
// acceptance bar for the session refactor.
TEST(SessionScenarioTest, OneScriptRunsOnBothTopologies) {
  ScenarioScript script;
  script.seed = 9;
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(2) + Time::FromMicroseconds(300);
  script.actions.push_back(up);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(3);
  script.actions.push_back(reest);

  DumbbellExperimentConfig dumbbell;
  dumbbell.flows = 40;
  dumbbell.seed = 5;
  dumbbell.scenario = script;
  const ExperimentResult a = RunDumbbell(dumbbell);
  EXPECT_EQ(a.scenario_actions, 3u);
  EXPECT_EQ(a.flows_completed, 40u);

  LeafSpineExperimentConfig leafspine;
  leafspine.topo.spines = 2;
  leafspine.topo.leaves = 2;
  leafspine.topo.hosts_per_leaf = 4;
  leafspine.flows = 40;
  leafspine.seed = 5;
  leafspine.scenario = script;
  const ExperimentResult b = RunLeafSpine(leafspine);
  EXPECT_EQ(b.scenario_actions, 3u);
  EXPECT_EQ(b.flows_completed, 40u);
}

// ---------------------------------------------------------------------------
// Golden trace determinism
// ---------------------------------------------------------------------------

DumbbellExperimentConfig SmallTracedDumbbell(std::uint64_t seed) {
  DumbbellExperimentConfig config;
  config.flows = 30;
  config.seed = seed;
  config.trace.enabled = true;
  return config;
}

// Re-running the identical config must reproduce the flight recorder down
// to the last byte of both renderings — the tracing seams may not perturb
// (or be perturbed by) rng-draw or event order.
TEST(GoldenTraceTest, DumbbellReRunsProduceByteIdenticalTraces) {
  const DumbbellExperimentConfig config = SmallTracedDumbbell(2);
  const ExperimentResult a = RunDumbbell(config);
  const ExperimentResult b = RunDumbbell(config);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_NE(a.trace, b.trace);  // distinct recorders, identical content
  const std::string json_a = TraceToJson(*a.trace).Dump();
  EXPECT_GT(json_a.size(), 1000u);
  EXPECT_EQ(json_a, TraceToJson(*b.trace).Dump());
  EXPECT_EQ(TraceToCsv(*a.trace), TraceToCsv(*b.trace));
}

// Each job carries its own recorder, so the exported trace of any given
// job must not depend on how many workers the sweep ran with.
TEST(GoldenTraceTest, TraceJsonIsJobCountInvariant) {
  std::vector<runner::JobSpec> specs;
  for (std::uint64_t seed : {2ull, 3ull, 4ull}) {
    specs.push_back({"traced/" + std::to_string(seed),
                     SmallTracedDumbbell(seed)});
  }
  runner::SweepOptions options;
  options.progress = false;
  std::vector<std::string> golden;  // from --jobs 1
  for (const std::size_t jobs : {1u, 4u, 8u}) {
    options.jobs = jobs;
    const std::vector<runner::JobResult> results =
        runner::RunJobs(specs, options);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto trace = runner::FctResult(results[i]).trace;
      ASSERT_NE(trace, nullptr) << specs[i].name;
      const std::string dump = TraceToJson(*trace).Dump();
      if (jobs == 1) {
        golden.push_back(dump);
      } else {
        EXPECT_EQ(dump, golden[i]) << specs[i].name << " jobs=" << jobs;
      }
    }
  }
  // Different seeds really produce different traces (the invariance above
  // is not vacuous).
  EXPECT_NE(golden[0], golden[1]);
}

// ---------------------------------------------------------------------------
// Fat-tree golden byte-identity
// ---------------------------------------------------------------------------

// The full exported sweep document (configs + results) for a fat-tree sweep
// must be byte-identical across --jobs 1/4/8 and across re-runs — multi-path
// ECMP and the range-routing tables may not introduce any order or thread
// dependence.
TEST(GoldenSweepTest, FatTreeSweepJsonIsJobCountInvariantAndRepeatable) {
  std::vector<runner::JobSpec> specs;
  for (std::uint64_t seed : {2ull, 3ull, 4ull}) {
    FatTreeExperimentConfig config;
    config.topo.k = 4;
    config.flows = 40;
    config.load = 0.4;
    config.seed = seed;
    specs.push_back({"ft/" + std::to_string(seed), config});
  }
  runner::SweepOptions options;
  options.progress = false;
  std::string golden;  // from the first --jobs 1 run
  for (const std::size_t jobs : {1u, 1u, 4u, 8u}) {  // 1 twice: re-run parity
    options.jobs = jobs;
    const std::vector<runner::JobResult> results =
        runner::RunJobs(specs, options);
    ASSERT_EQ(results.size(), specs.size());
    const std::string dump =
        runner::SweepToJson("fattree_golden", specs, results).Dump();
    EXPECT_GT(dump.size(), 500u);
    if (golden.empty()) {
      golden = dump;
    } else {
      EXPECT_EQ(dump, golden) << "jobs=" << jobs;
    }
  }
  // The seeds really differ (the invariance above is not vacuous).
  const std::vector<runner::JobResult> once =
      runner::RunJobs(specs, options);
  EXPECT_NE(runner::FctResult(once[0]).overall.avg_us,
            runner::FctResult(once[1]).overall.avg_us);
}

// The cross-topology scenario contract extends to the fat-tree: the same
// script (flap the canonical bottleneck, then re-estimate ECN# fabric-wide)
// runs unchanged.
TEST(SessionScenarioTest, ScenarioScriptRunsOnFatTree) {
  ScenarioScript script;
  script.seed = 9;
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(2) + Time::FromMicroseconds(300);
  script.actions.push_back(up);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(3);
  script.actions.push_back(reest);

  FatTreeExperimentConfig config;
  config.topo.k = 4;
  config.flows = 40;
  config.seed = 5;
  config.scenario = script;
  const ExperimentResult r = RunFatTree(config);
  EXPECT_EQ(r.scenario_actions, 3u);
  EXPECT_EQ(r.flows_completed, 40u);
}

// ---------------------------------------------------------------------------
// Topology interface on ComposedTopology (inter-DC)
// ---------------------------------------------------------------------------

ComposedConfig SmallComposed() {
  ComposedConfig config;
  config.side_a.leaf_spine = SmallFabric();  // 2 spines, 2 leaves, 3 hpl
  config.side_b.leaf_spine = SmallFabric();
  config.border_rtt = Time::Milliseconds(2);
  return config;
}

TEST(ComposedTopologyTest, EnumeratesSidesGatewaysAndBorder) {
  Simulator sim;
  ComposedTopology topo(sim, SmallComposed(),
                        FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  EXPECT_EQ(iface.host_count(), 12u);
  EXPECT_EQ(topo.side_host_count(0), 6u);
  EXPECT_EQ(topo.side_host_count(1), 6u);
  // auto_address: side B's block sits immediately after side A's.
  EXPECT_EQ(topo.side_base_address(0), 0u);
  EXPECT_EQ(topo.side_base_address(1), 6u);
  EXPECT_EQ(topo.host(7).address(), 7u);
  EXPECT_EQ(topo.border_link_count(), 1u);
  EXPECT_EQ(topo.attach_count(0), 2u);  // one attach per spine
  EXPECT_EQ(topo.attach_count(1), 2u);

  // Per side: 2 leaves x (3 down + 2 up) + 2 spines x (2 down + 1 attach
  // up) = 16 ports; each gateway: 2 attach downs + 1 border link = 3.
  ASSERT_EQ(iface.bottleneck_count(), 16u + 16u + 3u + 3u);
  EXPECT_EQ(&iface.bottleneck(0), &topo.side(0).bottleneck(0));
  EXPECT_EQ(&iface.bottleneck(16), &topo.side(1).bottleneck(0));
  EXPECT_EQ(&iface.bottleneck(32), &topo.gateway(0).port(0));
  EXPECT_EQ(&iface.bottleneck(34), &topo.border_port(0, 0));
  EXPECT_EQ(&iface.bottleneck(35), &topo.gateway(1).port(0));
  EXPECT_EQ(&iface.bottleneck(37), &topo.border_port(1, 0));
  // The full order: side A (leaves, then spines with their attach uplinks),
  // side B, gateway A, gateway B. Each side's own table already covers the
  // attach uplinks wired into it after it was built.
  std::vector<EgressPort*> walk;
  for (std::size_t s = 0; s < 2; ++s) {
    auto& side = dynamic_cast<LeafSpine&>(topo.side(s));
    std::vector<EgressPort*> side_walk;
    for (std::size_t l = 0; l < side.leaf_count(); ++l) {
      AppendPorts(side_walk, side.leaf(l));
    }
    for (std::size_t sp = 0; sp < side.spine_count(); ++sp) {
      AppendPorts(side_walk, side.spine(sp));
    }
    EXPECT_EQ(topo.side(s).bottleneck_count(), 16u);
    ExpectBottlenecks(topo.side(s), side_walk);
    walk.insert(walk.end(), side_walk.begin(), side_walk.end());
  }
  AppendPorts(walk, topo.gateway(0));
  AppendPorts(walk, topo.gateway(1));
  ExpectBottlenecks(iface, walk);

  // Load is defined against both sides' aggregate access capacity.
  EXPECT_EQ(iface.ReferenceCapacity().bps(),
            SmallFabric().rate.bps() * static_cast<std::int64_t>(12));
  // Incast converges on side A's host 0 from hosts fabric-wide.
  EXPECT_EQ(iface.IncastTarget(), 0u);
  EXPECT_EQ(&iface.IncastSender(0), &iface.stack(1));
  EXPECT_EQ(&iface.IncastSender(10), &iface.stack(11));
  EXPECT_EQ(&iface.IncastSender(11), &iface.stack(1));

  ExpectDownedPortAccounting(iface, topo.border_port(1, 0),
                             Time::FromMicroseconds(80));
}

TEST(ComposedTopologyTest, ResolvesScenarioPortIds) {
  Simulator sim;
  ComposedTopology topo(sim, SmallComposed(),
                        FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // -1 = the first border link's egress on gateway A.
  EXPECT_EQ(iface.ResolvePort(-1), &topo.border_port(0, 0));
  for (std::size_t h = 0; h < iface.host_count(); ++h) {
    EXPECT_EQ(iface.ResolvePort(static_cast<int>(h)), &iface.host(h).nic());
  }
  const int base = static_cast<int>(iface.host_count());
  for (std::size_t b = 0; b < iface.bottleneck_count(); ++b) {
    EXPECT_EQ(iface.ResolvePort(base + static_cast<int>(b)),
              &iface.bottleneck(b));
  }
  EXPECT_EQ(
      iface.ResolvePort(base + static_cast<int>(iface.bottleneck_count())),
      nullptr);
  // The diagnostic names every range of the unified target-id space.
  const std::string targets = iface.DescribePortTargets();
  EXPECT_NE(targets.find("0..11"), std::string::npos);
  EXPECT_NE(targets.find("12..27"), std::string::npos);
  EXPECT_NE(targets.find("28..43"), std::string::npos);
  EXPECT_NE(targets.find("44..46"), std::string::npos);
  EXPECT_NE(targets.find("gateway B"), std::string::npos);
}

TEST(ComposedTopologyTest, RttCapacityAndSamplePopulation) {
  Simulator sim;
  ComposedConfig config = SmallComposed();
  config.attach_delay = Time::FromMicroseconds(5);
  ComposedTopology topo(sim, config,
                        FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  Topology& iface = topo;

  // Hosts keep their side's intra-fabric base RTT (plus extras).
  EXPECT_EQ(iface.HostBaseRtt(0), Time::FromMicroseconds(80));
  EXPECT_EQ(iface.HostBaseRtt(6), Time::FromMicroseconds(80));
  topo.host(7).set_extra_egress_delay(Time::FromMicroseconds(40));
  EXPECT_EQ(iface.HostBaseRtt(7), Time::FromMicroseconds(120));

  // The border adds its RTT plus the four attach hops to inter-DC paths.
  EXPECT_EQ(topo.InterExtraRtt(), Time::FromMicroseconds(2020));
  EXPECT_EQ(topo.InterBaseRtt(), Time::FromMicroseconds(2100));
  // Border ports advertise the full inter-DC base RTT to the sketch.
  EXPECT_EQ(topo.border_port(0, 0).base_rtt_hint(), topo.InterBaseRtt());
  EXPECT_EQ(topo.border_port(1, 0).base_rtt_hint(), topo.InterBaseRtt());
  // Attach and side ports carry no WAN annotation.
  EXPECT_EQ(topo.gateway(0).port(0).base_rtt_hint(), Time::Zero());
  EXPECT_EQ(topo.side(0).bottleneck(0).base_rtt_hint(), Time::Zero());

  // Re-estimation population: one sample per host plus
  // round(inter_rtt_fraction * hosts) inter-DC samples cycling over hosts.
  std::vector<double> rtts;
  iface.AppendRttSamplesUs(rtts);
  ASSERT_EQ(rtts.size(), 12u + 3u);  // default fraction 0.25
  EXPECT_DOUBLE_EQ(rtts[0], 80.0);
  EXPECT_DOUBLE_EQ(rtts[7], 120.0);  // the extra delay above
  EXPECT_DOUBLE_EQ(rtts[12], 80.0 + 2020.0);
  EXPECT_DOUBLE_EQ(rtts[13], 80.0 + 2020.0);
}

TEST(ComposedTopologyTest, SplitSamplingRespectsTheSeam) {
  Simulator sim;
  ComposedTopology topo(sim, SmallComposed(),
                        FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));

  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    const auto [src_a, dst_a] = topo.SampleIntraPair(0, rng);
    ASSERT_NE(src_a, nullptr);
    EXPECT_LT(src_a->host().address(), 6u);
    EXPECT_LT(dst_a, 6u);
    EXPECT_NE(src_a->host().address(), dst_a);

    const auto [src_b, dst_b] = topo.SampleIntraPair(1, rng);
    ASSERT_NE(src_b, nullptr);
    EXPECT_GE(src_b->host().address(), 6u);
    EXPECT_GE(dst_b, 6u);
    EXPECT_LT(dst_b, 12u);
    EXPECT_NE(src_b->host().address(), dst_b);

    const auto [src_x, dst_x] = topo.SampleInterPair(rng);
    ASSERT_NE(src_x, nullptr);
    // An inter pair always crosses the seam, in either direction.
    EXPECT_NE(src_x->host().address() < 6u, dst_x < 6u);
    EXPECT_LT(dst_x, 12u);
  }
}

TEST(ComposedTopologyTest, MixedLeafSpineFatTreeSidesCarryTraffic) {
  InterDcExperimentConfig config;
  config.topo.side_a.leaf_spine = SmallFabric();
  config.topo.side_b.kind = ComposedSideConfig::Kind::kFatTree;
  config.topo.side_b.fat_tree.k = 4;
  config.topo.border_rtt = Time::FromMicroseconds(200);
  config.flows = 24;
  config.load = 0.3;
  config.inter_fraction = 0.5;
  config.seed = 13;
  const ExperimentResult r = RunInterDc(config);
  EXPECT_EQ(r.flows_started, 24u);
  EXPECT_EQ(r.flows_completed, 24u);
  EXPECT_EQ(r.inter_fct.count, 12u);
  EXPECT_EQ(r.intra_a_fct.count + r.intra_b_fct.count, 12u);

  // The composition itself: 6 leaf-spine hosts then 16 fat-tree hosts,
  // gateway B attaches to every core (k^2/4 = 4 of them).
  Simulator sim;
  ComposedTopology topo(sim, config.topo,
                        FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
  EXPECT_EQ(topo.host_count(), 22u);
  EXPECT_EQ(topo.side_base_address(1), 6u);
  EXPECT_EQ(topo.attach_count(1), 4u);
  EXPECT_EQ(topo.host(6).address(), 6u);
}

// ---------------------------------------------------------------------------
// Composed reduction parity: with zero border traffic and zero extra border
// RTT, each side of the composed fabric must reproduce its standalone
// single-fabric run bit for bit — the acceptance bar for the seam (attach
// ports, gateway switches, range routes) being invisible until used.
// ---------------------------------------------------------------------------

void ExpectSummariesEqual(const FctSummary& a, const FctSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.avg_us, b.avg_us);
  EXPECT_DOUBLE_EQ(a.stddev_us, b.stddev_us);
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p90_us, b.p90_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
  EXPECT_DOUBLE_EQ(a.max_us, b.max_us);
}

TEST(GoldenParityTest, ComposedZeroBorderReducesToStandaloneSides) {
  for (const Scheme scheme :
       {Scheme::kEcnSharp, Scheme::kDctcpRedTail, Scheme::kCodel}) {
    SCOPED_TRACE(SchemeName(scheme));
    // Both sides are the leaf-spine golden fabric; flows split evenly, so
    // each side runs the standalone golden's 80 flows.
    InterDcExperimentConfig composed;
    composed.scheme = scheme;
    composed.params = SimulationSchemeParams();
    composed.topo.side_a.leaf_spine.spines = 2;
    composed.topo.side_a.leaf_spine.leaves = 2;
    composed.topo.side_a.leaf_spine.hosts_per_leaf = 4;
    composed.topo.side_b = composed.topo.side_a;
    composed.topo.border_rtt = Time::Zero();
    composed.topo.attach_delay = Time::Zero();
    composed.inter_fraction = 0.0;
    composed.flows = 160;
    composed.load = 0.4;
    composed.seed = 7;
    const ExperimentResult c = RunInterDc(composed);
    EXPECT_EQ(c.flows_completed, 160u);
    EXPECT_EQ(c.inter_fct.count, 0u);
    EXPECT_EQ(c.intra_fct.count, 160u);

    // Side A replays the standalone run at the composed seed; side B at
    // seed+1 with its address block offset to match the composed plan.
    LeafSpineExperimentConfig standalone;
    standalone.scheme = scheme;
    standalone.params = SimulationSchemeParams();
    standalone.topo.spines = 2;
    standalone.topo.leaves = 2;
    standalone.topo.hosts_per_leaf = 4;
    standalone.flows = 80;
    standalone.load = 0.4;
    standalone.seed = 7;
    const ExperimentResult a = RunLeafSpine(standalone);
    standalone.seed = 8;
    standalone.topo.base_address = 8;  // side B's auto-assigned block
    const ExperimentResult b = RunLeafSpine(standalone);

    ExpectSummariesEqual(c.intra_a_fct, a.overall);
    ExpectSummariesEqual(c.intra_b_fct, b.overall);
    EXPECT_EQ(c.timeouts, a.timeouts + b.timeouts);
    // With the seam idle, the composed fabric's aggregate queue counters
    // are exactly the two standalone fabrics' sums (gateway and attach
    // queues never see a packet).
    EXPECT_EQ(c.bottleneck.ce_marked,
              a.bottleneck.ce_marked + b.bottleneck.ce_marked);
    EXPECT_EQ(c.bottleneck.dropped_overflow,
              a.bottleneck.dropped_overflow + b.bottleneck.dropped_overflow);
  }
}

// Side A of the zero-border composed run at the golden seed IS the pinned
// leaf-spine golden — pin it directly so composed-run drift is caught even
// if RunLeafSpine drifts in the same way.
TEST(GoldenParityTest, ComposedSideAMatchesPinnedLeafSpineGolden) {
  InterDcExperimentConfig composed;
  composed.scheme = Scheme::kEcnSharp;
  composed.params = SimulationSchemeParams();
  composed.topo.side_a.leaf_spine.spines = 2;
  composed.topo.side_a.leaf_spine.leaves = 2;
  composed.topo.side_a.leaf_spine.hosts_per_leaf = 4;
  composed.topo.side_b = composed.topo.side_a;
  composed.topo.border_rtt = Time::Zero();
  composed.topo.attach_delay = Time::Zero();
  composed.inter_fraction = 0.0;
  composed.flows = 160;
  composed.load = 0.4;
  composed.seed = 7;
  const ExperimentResult c = RunInterDc(composed);
  EXPECT_EQ(c.intra_a_fct.count, 80u);
  EXPECT_DOUBLE_EQ(c.intra_a_fct.avg_us, 542.41020000000003);
  EXPECT_DOUBLE_EQ(c.intra_a_fct.p99_us, 3312.739);
}

// ---------------------------------------------------------------------------
// Inter-DC session behavior: split reporting, scenarios, sketch seeding
// ---------------------------------------------------------------------------

TEST(InterDcSessionTest, SplitFctReportingCoversEveryFlow) {
  InterDcExperimentConfig config;
  config.topo.side_a.leaf_spine = SmallFabric();
  config.topo.side_b.leaf_spine = SmallFabric();
  config.topo.border_rtt = Time::Milliseconds(2);
  config.flows = 40;
  config.load = 0.3;
  config.inter_fraction = 0.5;
  config.seed = 21;
  const ExperimentResult r = RunInterDc(config);
  EXPECT_EQ(r.flows_started, 40u);
  EXPECT_EQ(r.flows_completed, 40u);
  // The split partitions the flow population exactly.
  EXPECT_EQ(r.inter_fct.count, 20u);
  EXPECT_EQ(r.intra_fct.count, 20u);
  EXPECT_EQ(r.intra_a_fct.count + r.intra_b_fct.count, r.intra_fct.count);
  EXPECT_EQ(r.overall.count, r.intra_fct.count + r.inter_fct.count);
  EXPECT_EQ(r.intra_timeouts + r.inter_timeouts, r.timeouts);
  // A 2 ms border makes cross-border flows visibly slower than intra ones.
  EXPECT_GT(r.inter_fct.p50_us, r.intra_fct.p50_us + 1000.0);
}

TEST(SessionScenarioTest, ScenarioScriptFlapsTheBorderLink) {
  ScenarioScript script;
  script.seed = 9;
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2);
  down.target = -1;  // composed convention: the first border link
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(2) + Time::FromMicroseconds(300);
  script.actions.push_back(up);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(3);
  script.actions.push_back(reest);

  InterDcExperimentConfig config;
  config.topo.side_a.leaf_spine = SmallFabric();
  config.topo.side_b.leaf_spine = SmallFabric();
  config.topo.border_rtt = Time::FromMicroseconds(400);
  config.flows = 40;
  config.load = 0.3;
  config.inter_fraction = 0.4;
  config.seed = 5;
  config.scenario = script;
  const ExperimentResult r = RunInterDc(config);
  EXPECT_EQ(r.scenario_actions, 3u);
  EXPECT_EQ(r.flows_completed, 40u);
}

TEST(InterDcSessionTest, SketchSeedsBorderBaseRttHint) {
  InterDcExperimentConfig config;
  config.topo.side_a.leaf_spine = SmallFabric();
  config.topo.side_b.leaf_spine = SmallFabric();
  config.topo.border_rtt = Time::Milliseconds(2);
  config.flows = 30;
  config.load = 0.3;
  config.inter_fraction = 0.3;
  config.seed = 17;
  config.sketch.enabled = true;
  const ExperimentResult r = RunInterDc(config);
  ASSERT_NE(r.sketch, nullptr);
  // The border ports' WAN annotation must have been offered to (and
  // admitted by) the base-RTT sketch — that is what lets the sketch-driven
  // estimator see ms-RTT paths no data packet has measured yet.
  EXPECT_GT(r.sketch->hint_samples_admitted(), 0u);
  EXPECT_EQ(r.flows_completed, 30u);
}

// The sweep export contract extends to the inter-DC family: byte-identical
// across --jobs settings and across re-runs.
TEST(GoldenSweepTest, InterDcSweepJsonIsJobCountInvariantAndRepeatable) {
  std::vector<runner::JobSpec> specs;
  for (std::uint64_t seed : {2ull, 3ull, 4ull}) {
    InterDcExperimentConfig config;
    config.topo.side_a.leaf_spine = SmallFabric();
    config.topo.side_b.leaf_spine = SmallFabric();
    config.topo.border_rtt = Time::FromMicroseconds(800);
    config.flows = 60;
    config.load = 0.3;
    config.inter_fraction = 0.25;
    config.seed = seed;
    specs.push_back({"interdc/" + std::to_string(seed), config});
  }
  runner::SweepOptions options;
  options.progress = false;
  std::string golden;  // from the first --jobs 1 run
  for (const std::size_t jobs : {1u, 1u, 4u, 8u}) {  // 1 twice: re-run parity
    options.jobs = jobs;
    const std::vector<runner::JobResult> results =
        runner::RunJobs(specs, options);
    ASSERT_EQ(results.size(), specs.size());
    const std::string dump =
        runner::SweepToJson("interdc_golden", specs, results).Dump();
    EXPECT_GT(dump.size(), 500u);
    // The export carries the split-FCT block and the border parameters.
    EXPECT_NE(dump.find("inter_fct"), std::string::npos);
    EXPECT_NE(dump.find("border_rtt_us"), std::string::npos);
    if (golden.empty()) {
      golden = dump;
    } else {
      EXPECT_EQ(dump, golden) << "jobs=" << jobs;
    }
  }
  const std::vector<runner::JobResult> once = runner::RunJobs(specs, options);
  EXPECT_NE(runner::FctResult(once[0]).overall.avg_us,
            runner::FctResult(once[1]).overall.avg_us);
}

}  // namespace
}  // namespace ecnsharp

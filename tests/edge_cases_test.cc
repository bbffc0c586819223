// Focused edge-case coverage across modules: scheduler quanta, simulator
// determinism under load, leaf-spine routing, Tofino clock wrap limits,
// host-path reordering, and DCQCN multiplexing.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>

#include "harness/experiment.h"
#include "hostpath/rtt_probe.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "tofino/ecn_sharp_pipeline.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "topo/rtt_variation.h"
#include "transport/dcqcn.h"

namespace ecnsharp {
namespace {

// --------------------------- DWRR quanta ------------------------------------

std::unique_ptr<Packet> SizedPacket(std::uint8_t cls, std::uint32_t bytes) {
  auto pkt = std::make_unique<Packet>();
  pkt->traffic_class = cls;
  pkt->size_bytes = bytes;
  return pkt;
}

TEST(DwrrEdgeTest, QuantumSmallerThanPacketStillServes) {
  // Quantum 100B << 1500B packets: a class must accumulate deficit over
  // rounds but service must not stall.
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  classes.push_back({1, nullptr});
  classes.push_back({1, nullptr});
  DwrrQueueDisc disc(1ull << 20, std::move(classes), /*pool=*/nullptr,
                     /*classifier=*/nullptr, /*quantum_bytes=*/100);
  for (int i = 0; i < 4; ++i) {
    disc.Enqueue(SizedPacket(0, 1500), Time::Zero());
    disc.Enqueue(SizedPacket(1, 1500), Time::Zero());
  }
  int served = 0;
  while (disc.Dequeue(Time::Zero()) != nullptr) ++served;
  EXPECT_EQ(served, 8);
}

TEST(DwrrEdgeTest, MixedPacketSizesConserveAllPackets) {
  Rng rng(3);
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  for (int i = 0; i < 3; ++i) classes.push_back({1u + i, nullptr});
  DwrrQueueDisc disc(1ull << 24, std::move(classes));
  int enqueued = 0;
  for (int i = 0; i < 500; ++i) {
    const auto cls = static_cast<std::uint8_t>(rng.UniformInt(3));
    const auto bytes = static_cast<std::uint32_t>(60 + rng.UniformInt(1441));
    if (disc.Enqueue(SizedPacket(cls, bytes), Time::Zero())) ++enqueued;
  }
  int dequeued = 0;
  while (disc.Dequeue(Time::Zero()) != nullptr) ++dequeued;
  EXPECT_EQ(dequeued, enqueued);
  EXPECT_EQ(disc.Snapshot().packets, 0u);
  EXPECT_EQ(disc.Snapshot().bytes, 0u);
}

// --------------------------- simulator determinism --------------------------

TEST(SimulatorDeterminismTest, IdenticalRunsProduceIdenticalSchedules) {
  const auto run_hash = [] {
    Simulator sim;
    Rng rng(99);
    std::uint64_t hash = 1469598103934665603ull;
    // Random self-rescheduling events.
    std::function<void(int)> tick = [&](int depth) {
      hash ^= static_cast<std::uint64_t>(sim.Now().ns());
      hash *= 1099511628211ull;
      if (depth > 0) {
        sim.Schedule(Time::Nanoseconds(
                         static_cast<std::int64_t>(rng.Uniform(1, 1000))),
                     [&tick, depth] { tick(depth - 1); });
      }
    };
    for (int i = 0; i < 50; ++i) tick(20);
    sim.Run();
    return hash;
  };
  EXPECT_EQ(run_hash(), run_hash());
}

TEST(SimulatorDeterminismTest, HighVolumeEventOrdering) {
  Simulator sim;
  Rng rng(5);
  Time last = Time::Zero();
  std::size_t executed = 0;
  for (int i = 0; i < 100'000; ++i) {
    sim.Schedule(
        Time::Nanoseconds(static_cast<std::int64_t>(rng.Uniform(0, 1e6))),
        [&sim, &last, &executed] {
          EXPECT_GE(sim.Now(), last);  // monotone execution
          last = sim.Now();
          ++executed;
        });
  }
  sim.Run();
  EXPECT_EQ(executed, 100'000u);
}

// --------------------------- leaf-spine routing -----------------------------

TEST(LeafSpineRoutingTest, NoPacketIsEverUnroutable) {
  Simulator sim;
  LeafSpineConfig config;
  config.spines = 2;
  config.leaves = 3;
  config.hosts_per_leaf = 2;
  LeafSpine topo(sim, config, [](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(1ull << 24, nullptr);
  });
  // Every ordered pair exchanges one small flow.
  int done = 0;
  int flows = 0;
  for (std::size_t src = 0; src < topo.host_count(); ++src) {
    for (std::size_t dst = 0; dst < topo.host_count(); ++dst) {
      if (src == dst) continue;
      ++flows;
      topo.stack(src).StartFlow(static_cast<std::uint32_t>(dst), 5000,
                                [&done](const FlowRecord&) { ++done; });
    }
  }
  sim.RunUntil(Time::Seconds(5));
  EXPECT_EQ(done, flows);
  for (std::size_t l = 0; l < topo.leaf_count(); ++l) {
    EXPECT_EQ(topo.leaf(l).no_route_drops(), 0u);
  }
  for (std::size_t s = 0; s < topo.spine_count(); ++s) {
    EXPECT_EQ(topo.spine(s).no_route_drops(), 0u);
  }
}

TEST(LeafSpineRoutingTest, IntraRackTrafficStaysOffTheSpine) {
  Simulator sim;
  LeafSpineConfig config;
  config.spines = 2;
  config.leaves = 2;
  config.hosts_per_leaf = 2;
  LeafSpine topo(sim, config, [](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(1ull << 24, nullptr);
  });
  bool done = false;
  topo.stack(0).StartFlow(1, 100'000, [&done](const FlowRecord&) {
    done = true;
  });  // host 0 -> host 1, same leaf
  sim.RunUntil(Time::Seconds(2));
  ASSERT_TRUE(done);
  for (std::size_t s = 0; s < topo.spine_count(); ++s) {
    EXPECT_EQ(topo.spine(s).rx_packets(), 0u);
  }
}

// --------------------------- Tofino clock bounds ----------------------------

TEST(TofinoClockTest, EmulatedClockWrapsAtDocumentedHorizon) {
  // The emulated 32-bit tick clock wraps every 2^32 * 1.024 us ~ 73.4 min
  // (§4.1: "more than 1 hour"). Verify the wrap point matches the
  // documented value rather than the raw timestamp's ~4.29 s.
  const std::uint64_t horizon_ns = (1ull << 32) << kTickShift;
  EXPECT_NEAR(static_cast<double>(horizon_ns) * 1e-9, 4398.0, 1.0);
  TimeEmulator emu;
  // Two reads a tick apart across the horizon still produce consecutive
  // 32-bit values (modulo wrap).
  PassContext p1;
  const std::uint32_t before =
      emu.CurrentTimeTicks(horizon_ns - kTickNs, p1);
  PassContext p2;
  const std::uint32_t after = emu.CurrentTimeTicks(horizon_ns, p2);
  EXPECT_EQ(static_cast<std::uint32_t>(before + 1), after);
}

TEST(TofinoClockTest, PipelineKeepsMarkingAcrossLongRuns) {
  // Sanity at multi-minute uptimes (well past several low-32-bit wraps of
  // the raw timestamp): instantaneous marking still fires.
  TofinoPipelineConfig config;
  config.num_ports = 1;
  EcnSharpPipeline pipe(config);
  const std::uint64_t minutes30 = 30ull * 60 * 1'000'000'000;
  EXPECT_TRUE(pipe.ProcessDequeue(0, minutes30 - 400'000, minutes30));
  EXPECT_FALSE(
      pipe.ProcessDequeue(0, minutes30 + 1'000'000 - 5'000,
                          minutes30 + 1'000'000));
}

// --------------------------- host-path probe --------------------------------

TEST(HostPathEdgeTest, CustomChainsCompose) {
  // A user-defined case with a single deterministic-ish stage produces RTTs
  // tightly around twice the stage mean plus the wire time.
  RttCaseSpec spec;
  spec.name = "custom";
  spec.request_stages = {{"fixed", 10.0, 0.7}};
  spec.response_stages = {{"fixed", 10.0, 0.7}};
  const RttStats stats = RunRttProbe(spec, 400, 1);
  EXPECT_NEAR(stats.mean_us, 20.0, 2.5);
  EXPECT_LT(stats.std_us, 2.0);
}

TEST(HostPathEdgeTest, EmptyChainsMeasureWireRtt) {
  RttCaseSpec spec;
  spec.name = "wire";
  const RttStats stats = RunRttProbe(spec, 100, 1);
  // 100G links, 200ns propagation x4 + tiny serialization: ~1us.
  EXPECT_LT(stats.mean_us, 3.0);
  EXPECT_GT(stats.mean_us, 0.5);
}

// --------------------------- DCQCN multiplexing -----------------------------

TEST(DcqcnEdgeTest, ManyFlowsPerStackCompleteIndependently) {
  Simulator sim;
  Host a(sim, 0);
  Host b(sim, 1);
  auto nic_a = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Microseconds(2),
      std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
  auto nic_b = std::make_unique<EgressPort>(
      sim, DataRate::GigabitsPerSecond(10), Time::Microseconds(2),
      std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
  nic_a->ConnectTo(b);
  nic_b->ConnectTo(a);
  a.AttachNic(std::move(nic_a));
  b.AttachNic(std::move(nic_b));
  DcqcnConfig config;
  DcqcnStack stack_a(a, config);
  DcqcnStack stack_b(b, config);
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    stack_a.StartFlow(1, 50'000 + i * 1000,
                      [&done](const FlowRecord&) { ++done; });
  }
  sim.RunUntil(Time::Seconds(2));
  EXPECT_EQ(done, 10);
}

// ------------------- Degenerate configs fail fast (exit 2) ------------------
//
// These used to be UB or silent nonsense: LeafSpine::IncastSender divided by
// hosts_.size()-1 and SampleFlowPair called UniformInt(n-1), both degenerate
// on 1-host fabrics; Dumbbell's senders>=1 check was an assert() compiled
// out of release builds; a stale scenario target id was silently skipped at
// fire time. All now exit 2 (the CLI's config-error code) with a diagnostic.

TEST(ConfigValidationDeathTest, OneHostLeafSpineSampleFlowPairExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        LeafSpineConfig config;
        config.spines = 1;
        config.leaves = 1;
        config.hosts_per_leaf = 1;
        LeafSpine topo(sim, config,
                       FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
        Rng rng(1);
        topo.SampleFlowPair(rng);
      },
      testing::ExitedWithCode(2), "needs >= 2 hosts");
}

TEST(ConfigValidationDeathTest, OneHostLeafSpineIncastSenderExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        LeafSpineConfig config;
        config.spines = 1;
        config.leaves = 1;
        config.hosts_per_leaf = 1;
        LeafSpine topo(sim, config,
                       FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
        topo.IncastSender(0);
      },
      testing::ExitedWithCode(2), "incast needs >= 2 hosts");
}

TEST(ConfigValidationDeathTest, ZeroDimensionLeafSpineExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        LeafSpineConfig config;
        config.leaves = 0;
        LeafSpine topo(sim, config,
                       FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
      },
      testing::ExitedWithCode(2), "dimensions must all be >= 1");
}

TEST(ConfigValidationDeathTest, ZeroSenderDumbbellExits) {
  EXPECT_EXIT(
      {
        DumbbellExperimentConfig config;
        config.senders = 0;
        RunDumbbell(config);
      },
      testing::ExitedWithCode(2), "needs >= 1 sender");
}

// A load that is not finite and positive has no Poisson gap (1 / rate is
// infinite or negative and overflowed Time::FromSeconds); an RTT variation
// below 1 gave hosts negative netem extras. Both used to run silently.
TEST(ConfigValidationDeathTest, NonPositiveLoadExits) {
  for (const double load : {0.0, -0.5, std::nan("")}) {
    EXPECT_EXIT(
        {
          DumbbellExperimentConfig config;
          config.load = load;
          RunDumbbell(config);
        },
        testing::ExitedWithCode(2), "traffic load must be finite and > 0");
  }
}

// The CUBIC share of a mixed-CC run is a probability; 2 used to run every
// flow on CUBIC and NaN none, both silently.
TEST(ConfigValidationDeathTest, OutOfRangeCubicFractionExits) {
  for (const double mix : {2.0, -0.5, std::nan("")}) {
    EXPECT_EXIT(
        {
          DumbbellExperimentConfig config;
          config.cc_mix = mix;
          RunDumbbell(config);
        },
        testing::ExitedWithCode(2), "cubic_fraction must be in \\[0, 1\\]");
  }
}

TEST(ConfigValidationDeathTest, SubUnitDumbbellRttVariationExits) {
  for (const double variation : {0.0, -3.0, 0.5, std::nan("")}) {
    EXPECT_EXIT(
        {
          DumbbellExperimentConfig config;
          config.rtt_variation = variation;
          RunDumbbell(config);
        },
        testing::ExitedWithCode(2), "rtt_variation must be finite and >= 1");
  }
}

TEST(ConfigValidationDeathTest, SubUnitIncastRttVariationExits) {
  EXPECT_EXIT(
      {
        IncastExperimentConfig config;
        config.rtt_variation = 0.0;
        RunIncast(config);
      },
      testing::ExitedWithCode(2), "rtt_variation must be finite and >= 1");
}

// Extras of (k - 1) * base RTT at 2^62 ns or more would overflow Time.
TEST(ConfigValidationDeathTest, OverflowingRttVariationExits) {
  EXPECT_EXIT(
      {
        DumbbellExperimentConfig config;
        config.rtt_variation = 1e30;
        RunDumbbell(config);
      },
      testing::ExitedWithCode(2), "extra delay of 2\\^62 ns or more");
  EXPECT_EXIT(
      {
        IncastExperimentConfig config;
        config.rtt_variation = 1e30;
        RunIncast(config);
      },
      testing::ExitedWithCode(2), "extra delay of 2\\^62 ns or more");
}

// A positive but vanishing load draws Poisson gaps past Time's range.
TEST(ConfigValidationDeathTest, VanishingLoadExits) {
  EXPECT_EXIT(
      {
        DumbbellExperimentConfig config;
        config.load = 1e-300;
        RunDumbbell(config);
      },
      testing::ExitedWithCode(2),
      "traffic load 1e-300 puts a flow arrival at 2\\^62 ns or later");
}

TEST(ConfigValidationDeathTest, OddFatTreeArityExits) {
  EXPECT_EXIT(
      {
        FatTreeExperimentConfig config;
        config.topo.k = 5;
        RunFatTree(config);
      },
      testing::ExitedWithCode(2), "must be even and >= 4");
}

TEST(ConfigValidationDeathTest, TooSmallFatTreeArityExits) {
  EXPECT_EXIT(
      {
        FatTreeExperimentConfig config;
        config.topo.k = 2;
        RunFatTree(config);
      },
      testing::ExitedWithCode(2), "must be even and >= 4");
}

// Satellite regression: a scenario written against a larger fabric (its
// target id is one past this fabric's last switch port) must fail at Bind
// time with a diagnostic naming the target and the valid range — not be
// silently skipped when it fires.
TEST(ConfigValidationDeathTest, StaleScenarioPortTargetExitsWithRange) {
  EXPECT_EXIT(
      {
        FatTreeExperimentConfig config;
        config.topo.k = 4;  // 16 hosts + 80 switch ports: max target 95
        config.flows = 5;
        ScenarioAction down;
        down.kind = ScenarioActionKind::kLinkDown;
        down.at = Time::Milliseconds(1);
        down.target = 96;  // stale: valid on k=6, one past the end on k=4
        config.scenario.actions.push_back(down);
        RunFatTree(config);
      },
      testing::ExitedWithCode(2), "target 96 does not resolve.*16\\.\\.95");
}

// Composed inter-DC fabrics: degenerate border spans and colliding target-id
// spaces must die at build time with the valid range, not mis-route or wrap.

ComposedConfig TinyComposed() {
  ComposedConfig config;
  config.side_a.leaf_spine.spines = 1;
  config.side_a.leaf_spine.leaves = 1;
  config.side_a.leaf_spine.hosts_per_leaf = 2;
  config.side_b = config.side_a;
  return config;
}

std::unique_ptr<QueueDisc> TinyDisc(BufferPolicy* pool) {
  return MakeFifoDisc(Scheme::kEcnSharp, SchemeParams(), pool);
}

TEST(ConfigValidationDeathTest, ZeroBorderLinkComposedExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.border_links = 0;
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2),
      "needs >= 1 border link, got border_links=0; valid range \\[1, inf\\)");
}

TEST(ConfigValidationDeathTest, ZeroBorderRateComposedExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.border_rate = DataRate::BitsPerSecond(0);
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2), "border rate must be positive");
}

TEST(ConfigValidationDeathTest, ZeroRateFatTreeExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        FatTreeConfig config;
        config.k = 4;
        config.rate = DataRate::GigabitsPerSecond(0.4e-9);  // rounds to 0
        FatTree topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2), "fat-tree link rate must be positive");
}

TEST(ConfigValidationDeathTest, BorderRttOverflowComposedExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.border_rtt = Time::Seconds(11);  // a unit mistake, not a WAN
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2),
      "border RTT out of range.*valid range \\[0us, 10000000 us\\]");
}

TEST(ConfigValidationDeathTest, NegativeBorderRttComposedExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.border_rtt = Time::FromMicroseconds(-1);
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2), "border RTT out of range");
}

TEST(ConfigValidationDeathTest, OverlappingComposedAddressRangesExit) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.auto_address = false;
        config.side_a.leaf_spine.base_address = 0;  // hosts [0, 1]
        config.side_b.leaf_spine.base_address = 1;  // hosts [1, 2]: collides
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2),
      "overlapping host address ranges: side A \\[0, 1\\], side B \\[1, 2\\]");
}

TEST(ConfigValidationDeathTest, ComposedAddressOverflowExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.auto_address = false;
        config.side_b.leaf_spine.base_address = 0xFFFFFFFFu;  // 2 hosts wrap
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2), "host address range overflows 32 bits");
}

TEST(ConfigValidationDeathTest, ComposedInterRttFractionOutOfRangeExits) {
  EXPECT_EXIT(
      {
        Simulator sim;
        ComposedConfig config = TinyComposed();
        config.inter_rtt_fraction = 1.5;
        ComposedTopology topo(sim, config, TinyDisc);
      },
      testing::ExitedWithCode(2),
      "inter_rtt_fraction out of range: got 1.5.*valid range \\[0, 1\\]");
}

TEST(ConfigValidationDeathTest, InterFractionBelowZeroExits) {
  EXPECT_EXIT(
      {
        InterDcExperimentConfig config;
        config.topo = TinyComposed();
        config.inter_fraction = -0.1;
        RunInterDc(config);
      },
      testing::ExitedWithCode(2),
      "interdc inter_fraction out of range.*valid range \\[0, 1\\]");
}

TEST(ConfigValidationDeathTest, InterFractionAboveOneExits) {
  EXPECT_EXIT(
      {
        InterDcExperimentConfig config;
        config.topo = TinyComposed();
        config.inter_fraction = 1.5;
        RunInterDc(config);
      },
      testing::ExitedWithCode(2),
      "interdc inter_fraction out of range.*valid range \\[0, 1\\]");
}

TEST(ConfigValidationDeathTest, OutOfRangeHostDelayTargetExits) {
  EXPECT_EXIT(
      {
        LeafSpineExperimentConfig config;
        config.topo.spines = 2;
        config.topo.leaves = 2;
        config.topo.hosts_per_leaf = 2;
        config.flows = 5;
        ScenarioAction shift;
        shift.kind = ScenarioActionKind::kSetHostDelay;
        shift.at = Time::Milliseconds(1);
        shift.target = 4;  // hosts are 0..3
        shift.delay_us = 100.0;
        config.scenario.actions.push_back(shift);
        RunLeafSpine(config);
      },
      testing::ExitedWithCode(2), "host index 4 out of range");
}

// Once a host tracks a sender on every one of the 65,535 source ports
// toward one destination, the free-port search used to spin forever. It
// now gives up after one pass and names the host, destination and count.
TEST(ConfigValidationDeathTest, ExhaustedSourcePortsExit) {
  EXPECT_EXIT(
      {
        Simulator sim;
        DumbbellConfig config;
        config.senders = 1;
        config.host_buffer_bytes = 4 * kFullPacketBytes;
        Dumbbell topo(sim, config, TinyDisc);
        for (int i = 0; i < 65536; ++i) {
          topo.sender_stack(0).StartFlow(topo.receiver_address(), 1 << 20,
                                         nullptr);
        }
      },
      testing::ExitedWithCode(2),
      "host 0 has no free source port toward 1: 65535 live senders");
}

}  // namespace
}  // namespace ecnsharp

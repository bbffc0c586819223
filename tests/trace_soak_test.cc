// Randomized invariant soak: seeded churn (enqueue bursts, link flaps with
// purge or drain, recoveries) against all three queue discs, with the
// flight-recorder trace as an independent oracle. After every scripted
// action the accounting invariant
//
//   enqueued == dequeued + purged + queued
//
// must hold, shared-buffer reservations must equal the queue's byte
// occupancy, and the trace tap's tallies must agree with the disc's own
// stats — the tap observes each packet at a different code path than the
// stats counters, so agreement pins the drain-vs-purge interleave.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/policies.h"
#include "dynamics/scenario.h"
#include "dynamics/scenario_engine.h"
#include "harness/experiment.h"
#include "net/egress_port.h"
#include "net/packet_tracer.h"
#include "net/queue_disc.h"
#include "buffer/policies.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sched/sp_queue_disc.h"
#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/telemetry.h"
#include "topo/composed.h"
#include "topo/fat_tree.h"
#include "trace/trace_config.h"
#include "trace/trace_recorder.h"

namespace ecnsharp {
namespace {

struct NullSink : PacketSink {
  void HandlePacket(std::unique_ptr<Packet>) override {}
};

std::unique_ptr<Packet> MakePacket(Rng& rng) {
  auto pkt = std::make_unique<Packet>();
  pkt->size_bytes = 64 + static_cast<std::uint32_t>(rng.UniformInt(1437));
  pkt->ecn = EcnCodepoint::kEct0;
  pkt->traffic_class = static_cast<std::uint8_t>(rng.UniformInt(3));
  pkt->seq = rng.UniformInt(1u << 20);
  return pkt;
}

// Asserts the accounting invariant and that the trace tap agrees with the
// disc's stats counter for counter. `pool` is optional (FIFO only).
void CheckInvariants(const QueueDisc& disc, const TraceRecorder& trace,
                     const BufferPolicy* pool, const char* when) {
  const QueueDiscStats& stats = disc.stats();
  const QueueSnapshot snapshot = disc.Snapshot();
  ASSERT_EQ(stats.enqueued, stats.dequeued + stats.purged + snapshot.packets)
      << when;
  if (pool != nullptr) {
    ASSERT_EQ(pool->used_bytes(), snapshot.bytes) << when;
  }
  const TraceSiteCounters& c = trace.site_counters(0);
  ASSERT_EQ(c.enqueued, stats.enqueued) << when;
  ASSERT_EQ(c.dequeued, stats.dequeued) << when;
  ASSERT_EQ(c.purged, stats.purged) << when;
  ASSERT_EQ(c.marks, stats.ce_marked) << when;
  ASSERT_EQ(c.drops[static_cast<std::size_t>(DropReason::kOverflow)],
            stats.dropped_overflow)
      << when;
  ASSERT_EQ(c.drops[static_cast<std::size_t>(DropReason::kAqm)],
            stats.dropped_aqm)
      << when;
}

// Runs one seeded churn timeline against `port`: random arrival bursts
// interleaved with purge-flaps, drain-flaps, and recoveries, checking the
// invariants after every scripted step and once more after the drain.
void SoakPort(Simulator& sim, EgressPort& port, BufferPolicy* pool,
              std::uint64_t seed) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder trace(config);
  trace.RegisterSite("soak");
  port.SetTracer(trace.PortTap(0));

  Rng rng(seed);
  Time at = Time::Zero();
  std::uint64_t steps = 0;
  for (int step = 0; step < 400; ++step) {
    at = at + Time::FromMicroseconds(1 + rng.UniformInt(20));
    const std::uint64_t dice = rng.UniformInt(10);
    if (dice < 6) {
      // Arrival burst: 1..8 packets, sizes and classes randomized.
      const std::uint64_t count = 1 + rng.UniformInt(8);
      sim.ScheduleAt(at, [&, count] {
        for (std::uint64_t i = 0; i < count; ++i) {
          port.Enqueue(MakePacket(rng));
        }
        ++steps;
        CheckInvariants(port.queue_disc(), trace, pool, "after burst");
      });
    } else if (dice < 8) {
      const bool drop_queued = rng.UniformInt(2) == 0;
      sim.ScheduleAt(at, [&, drop_queued] {
        port.LinkDown(drop_queued);
        ++steps;
        CheckInvariants(port.queue_disc(), trace, pool, "after link down");
      });
    } else {
      sim.ScheduleAt(at, [&] {
        port.LinkUp();
        ++steps;
        CheckInvariants(port.queue_disc(), trace, pool, "after link up");
      });
    }
  }
  sim.Run();
  ASSERT_EQ(steps, 400u);
  // Ensure the run is drained (the port may have ended in a down state
  // holding a backlog — bring it up and let it finish).
  port.LinkUp();
  sim.Run();
  CheckInvariants(port.queue_disc(), trace, pool, "after drain");
  const QueueDiscStats& stats = port.queue_disc().stats();
  EXPECT_EQ(port.queue_disc().Snapshot().packets, 0u);
  EXPECT_EQ(stats.enqueued, stats.dequeued + stats.purged);
  // The churn must actually have exercised both halves of the invariant.
  EXPECT_GT(stats.dequeued, 0u) << "seed " << seed;
  EXPECT_GT(stats.purged + stats.dropped_overflow, 0u) << "seed " << seed;
}

constexpr std::uint64_t kSoakSeeds[] = {1, 7, 0xdecaf};

TEST(TraceSoakTest, FifoSharedBufferInvariantHoldsUnderChurn) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    // Small: forces overflow refusals.
    DynamicThresholdPolicy pool(24'000, 8.0);
    EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                    Time::FromMicroseconds(1),
                    std::make_unique<FifoQueueDisc>(pool, nullptr));
    NullSink sink;
    port.ConnectTo(sink);
    SoakPort(sim, port, &pool, seed);
  }
}

TEST(TraceSoakTest, DwrrInvariantHoldsUnderChurn) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    std::vector<DwrrQueueDisc::ClassConfig> classes(3);
    classes[0].weight = 2;
    classes[1].weight = 1;
    classes[2].weight = 1;
    EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                    Time::FromMicroseconds(1),
                    std::make_unique<DwrrQueueDisc>(24'000,
                                                    std::move(classes)));
    NullSink sink;
    port.ConnectTo(sink);
    SoakPort(sim, port, nullptr, seed);
  }
}

TEST(TraceSoakTest, SpInvariantHoldsUnderChurn) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    std::vector<SpQueueDisc::ClassConfig> classes(3);
    EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                    Time::FromMicroseconds(1),
                    std::make_unique<SpQueueDisc>(24'000, std::move(classes)));
    NullSink sink;
    port.ConnectTo(sink);
    SoakPort(sim, port, nullptr, seed);
  }
}

// The same checks driven by the real ScenarioEngine: a seeded script of
// flaps and purges, with the post-action check scheduled from the engine's
// on_action observer. on_action fires before the effect is applied, and
// same-time events run FIFO, so an event scheduled at `now` from the
// observer runs right after the action's effect — the earliest instant the
// post-state is observable.
TEST(TraceSoakTest, ScenarioEngineActionsPreserveInvariants) {
  Simulator sim;
  DynamicThresholdPolicy pool(1u << 20, 8.0);
  EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                  Time::FromMicroseconds(1),
                  std::make_unique<FifoQueueDisc>(pool, nullptr));
  NullSink sink;
  port.ConnectTo(sink);

  TraceConfig config;
  config.enabled = true;
  TraceRecorder trace(config);
  trace.RegisterSite("soak");
  port.SetTracer(trace.PortTap(0));

  // Keep a standing queue so every flap has a backlog to purge or park.
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const Time at = Time::FromMicroseconds(5 * i);
    sim.ScheduleAt(at, [&] {
      for (int j = 0; j < 4; ++j) port.Enqueue(MakePacket(rng));
    });
  }

  ScenarioScript script;
  script.seed = 13;
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::FromMicroseconds(100);
  down.target = -1;
  down.drop_queued = true;
  down.repeat = 6;
  down.period = Time::FromMicroseconds(300);
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(120);
  script.actions.push_back(up);

  std::uint64_t checks = 0;
  ScenarioHooks hooks;
  hooks.port = [&](int) { return &port; };
  hooks.on_action = [&](const ScenarioAction& action, Time at) {
    trace.OnScenarioAction(at, static_cast<std::uint8_t>(action.kind),
                           action.target);
    sim.ScheduleAt(at, [&] {
      ++checks;
      CheckInvariants(port.queue_disc(), trace, &pool, "post-action");
    });
  };
  ScenarioEngine engine(sim, script, hooks);
  engine.Install();
  sim.Run();
  port.LinkUp();
  sim.Run();

  EXPECT_EQ(engine.actions_fired(), 12u);
  EXPECT_EQ(checks, 12u);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kScenario), 12u);
  EXPECT_GT(port.queue_disc().stats().purged, 0u);
  CheckInvariants(port.queue_disc(), trace, &pool, "final");
}

// Full-stack soak: the dumbbell dynamics scenario (loss injection, incast
// burst, purge-flap, re-estimation) with tracing enabled. The trace must
// agree with every independently-maintained counter the harness reports.
TEST(TraceSoakTest, DynamicDumbbellTraceAgreesWithHarnessCounters) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.seed = 5;
  config.trace.enabled = true;
  ScenarioScript script;
  script.seed = 21;
  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.at = Time::Milliseconds(1);
  loss.target = -1;
  loss.drop_prob = 0.05;
  script.actions.push_back(loss);
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(2);
  burst.flows = 8;
  burst.bytes = 20000;
  script.actions.push_back(burst);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(3);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(3) + Time::FromMicroseconds(200);
  script.actions.push_back(up);
  config.scenario = script;

  const ExperimentResult r = RunDumbbell(config);
  ASSERT_NE(r.trace, nullptr);
  const TraceRecorder& trace = *r.trace;
  const TraceSiteCounters& c = trace.site_counters(0);

  EXPECT_EQ(c.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(c.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(c.purged, r.bottleneck.purged);
  EXPECT_EQ(c.marks, r.bottleneck.ce_marked);
  EXPECT_EQ(c.enqueued, c.dequeued + c.purged);  // drained
  EXPECT_EQ(c.drops[static_cast<std::size_t>(DropReason::kFaultLoss)],
            r.injected_drops);
  EXPECT_EQ(c.drops[static_cast<std::size_t>(DropReason::kLinkDown)],
            r.link_down_drops);
  // Every dequeued packet either hit the injected loss or made it onto the
  // wire (corrupted packets transmit and are discarded at the far end).
  EXPECT_EQ(c.dequeued,
            c.transmitted +
                c.drops[static_cast<std::size_t>(DropReason::kFaultLoss)]);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kScenario), r.scenario_actions);
  EXPECT_GT(r.injected_drops, 0u);
  EXPECT_GT(r.bottleneck.purged, 0u);
}

// The same churn timeline run against a real fat-tree fabric port: edge 0's
// first uplink (the canonical bottleneck), with the rest of the k=4 fabric
// live behind it. The accounting invariant must hold after every action
// even when purged traffic would otherwise have crossed two more tiers.
TEST(TraceSoakTest, FatTreeBottleneckInvariantHoldsUnderChurn) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    FatTreeConfig config;
    config.k = 4;
    FatTree topo(sim, config,
                 FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
    EgressPort* uplink = topo.ResolvePort(-1);
    ASSERT_NE(uplink, nullptr);
    SoakPort(sim, *uplink, nullptr, seed);
  }
}

// Full-stack fat-tree soak: k=4 under repeated purge-flaps with both the
// flight recorder and the sketch telemetry enabled. The per-site tallies
// summed over all 5k^3/4 = 80 fabric ports must agree with the fabric-wide
// aggregate the harness reports, and the fabric must drain to
// enqueued == dequeued + purged (the queued term is zero at exit).
TEST(TraceSoakTest, DynamicFatTreeTraceAndSketchAgreeWithHarnessCounters) {
  FatTreeExperimentConfig config;
  config.topo.k = 4;
  config.flows = 60;
  config.seed = 5;
  config.trace.enabled = true;
  config.sketch.enabled = true;

  // An incast burst converging on host 0 builds a standing queue on edge
  // 0's down port to it (bottleneck 0 = port target 16 at k=4); the
  // purge-flaps then have a guaranteed backlog to purge.
  ScenarioScript script;
  script.seed = 21;
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(1) + Time::FromMicroseconds(500);
  burst.flows = 16;
  burst.bytes = 80000;
  script.actions.push_back(burst);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2);
  down.target = 16;
  down.drop_queued = true;
  down.repeat = 4;
  down.period = Time::FromMicroseconds(500);
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(250);
  script.actions.push_back(up);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(5);
  script.actions.push_back(reest);
  config.scenario = script;

  const ExperimentResult r = RunFatTree(config);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_NE(r.sketch, nullptr);
  ASSERT_EQ(r.trace->site_count(), 80u);
  ASSERT_EQ(r.sketch->site_count(), 80u);

  TraceSiteCounters total;
  SketchSiteCounters sketch_total;
  for (std::uint16_t s = 0; s < 80; ++s) {
    const TraceSiteCounters& c = r.trace->site_counters(s);
    total.enqueued += c.enqueued;
    total.dequeued += c.dequeued;
    total.purged += c.purged;
    total.marks += c.marks;
    const SketchSiteCounters& sc = r.sketch->site_counters(s);
    sketch_total.enqueued += sc.enqueued;
    sketch_total.dequeued += sc.dequeued;
    sketch_total.marks += sc.marks;
  }
  EXPECT_EQ(total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(total.purged, r.bottleneck.purged);
  EXPECT_EQ(total.marks, r.bottleneck.ce_marked);
  EXPECT_EQ(sketch_total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(sketch_total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(sketch_total.marks, r.bottleneck.ce_marked);
  // Drained fabric: the `queued` term of the invariant is zero.
  EXPECT_EQ(r.bottleneck.enqueued, r.bottleneck.dequeued + r.bottleneck.purged);
  EXPECT_GT(r.bottleneck.purged, 0u);  // the flaps really purged a backlog
  EXPECT_EQ(r.scenario_actions, 10u);  // burst + 4 downs + 4 ups + re-estimate
  EXPECT_EQ(r.incast_bursts, 1u);
  EXPECT_EQ(r.flows_completed, 76u);  // 60 workload + 16 burst flows
}

// The same churn timeline against the composed inter-DC fabric's border
// port — the seam where ms-RTT WAN serialization meets purge-flaps — with
// the rest of both sides live behind it. One test per queue disc so each
// drain/purge interleave is pinned independently.
ComposedConfig SoakComposed() {
  ComposedConfig config;
  config.side_a.leaf_spine.spines = 2;
  config.side_a.leaf_spine.leaves = 2;
  config.side_a.leaf_spine.hosts_per_leaf = 3;
  config.side_b = config.side_a;
  config.border_rtt = Time::Milliseconds(2);
  return config;
}

void SoakComposedBorder(const DiscFactory& make_disc) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    ComposedTopology topo(sim, SoakComposed(), make_disc);
    EgressPort* border = topo.ResolvePort(-1);
    ASSERT_NE(border, nullptr);
    SoakPort(sim, *border, nullptr, seed);
  }
}

TEST(TraceSoakTest, ComposedBorderFifoInvariantHoldsUnderChurn) {
  SoakComposedBorder(FifoDiscFactory(Scheme::kEcnSharp, SchemeParams()));
}

TEST(TraceSoakTest, ComposedBorderDwrrInvariantHoldsUnderChurn) {
  SoakComposedBorder([](BufferPolicy*) {
    std::vector<DwrrQueueDisc::ClassConfig> classes(3);
    classes[0].weight = 2;
    classes[1].weight = 1;
    classes[2].weight = 1;
    return std::make_unique<DwrrQueueDisc>(24'000, std::move(classes));
  });
}

TEST(TraceSoakTest, ComposedBorderSpInvariantHoldsUnderChurn) {
  SoakComposedBorder([](BufferPolicy*) {
    std::vector<SpQueueDisc::ClassConfig> classes(3);
    return std::make_unique<SpQueueDisc>(24'000, std::move(classes));
  });
}

// Full-stack composed soak: two live leaf-spine sides over a flapping
// border under a split traffic matrix, with both the flight recorder and
// the sketch telemetry on. The scenario combines border purge-flaps with an
// RTT shift (border propagation change + ECN# re-estimation) — the two
// stressors the inter-DC regime composes. Per-site tallies summed over all
// 38 sites (16 per side + 3 per gateway) must equal the fabric-wide
// aggregates, and the fabric must drain to enqueued == dequeued + purged.
TEST(TraceSoakTest, DynamicInterDcTraceAndSketchAgreeWithHarnessCounters) {
  InterDcExperimentConfig config;
  config.topo = SoakComposed();
  config.topo.border_rtt = Time::FromMicroseconds(400);
  // Oversubscribed border (1G against a 10G fabric): the B->A burst data
  // queues at the seam, so the purge-flaps find a standing backlog there.
  config.topo.border_rate = DataRate::GigabitsPerSecond(1);
  config.flows = 40;
  config.inter_fraction = 0.25;
  config.seed = 5;
  config.trace.enabled = true;
  config.sketch.enabled = true;

  // An incast burst converging on side A's host 0 pulls the side B senders
  // across the border, so the border purge-flaps have a guaranteed backlog.
  ScenarioScript script;
  script.seed = 21;
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(1) + Time::FromMicroseconds(500);
  burst.flows = 10;
  burst.bytes = 80000;
  script.actions.push_back(burst);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2);
  // Gateway B's border egress — the B->A direction carrying the burst data
  // (id 49 = 12 hosts + 32 side bottlenecks + 3 gwA ports + 2 gwB attach
  // downs; gateway A's direction only carries ACKs here).
  down.target = 49;
  down.drop_queued = true;
  down.repeat = 4;
  down.period = Time::FromMicroseconds(500);
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(250);
  script.actions.push_back(up);
  ScenarioAction shift;
  shift.kind = ScenarioActionKind::kSetLinkDelay;
  shift.at = Time::Milliseconds(5);
  shift.target = -1;
  shift.delay_us = 1000.0;  // border one-way 200us -> 1ms mid-run
  script.actions.push_back(shift);
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(5) + Time::FromMicroseconds(100);
  script.actions.push_back(reest);
  config.scenario = script;

  const ExperimentResult r = RunInterDc(config);
  ASSERT_NE(r.trace, nullptr);
  ASSERT_NE(r.sketch, nullptr);
  ASSERT_EQ(r.trace->site_count(), 38u);
  ASSERT_EQ(r.sketch->site_count(), 38u);

  TraceSiteCounters total;
  SketchSiteCounters sketch_total;
  for (std::uint16_t s = 0; s < 38; ++s) {
    const TraceSiteCounters& c = r.trace->site_counters(s);
    total.enqueued += c.enqueued;
    total.dequeued += c.dequeued;
    total.purged += c.purged;
    total.marks += c.marks;
    const SketchSiteCounters& sc = r.sketch->site_counters(s);
    sketch_total.enqueued += sc.enqueued;
    sketch_total.dequeued += sc.dequeued;
    sketch_total.marks += sc.marks;
  }
  EXPECT_EQ(total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(total.purged, r.bottleneck.purged);
  EXPECT_EQ(total.marks, r.bottleneck.ce_marked);
  EXPECT_EQ(sketch_total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(sketch_total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(sketch_total.marks, r.bottleneck.ce_marked);
  // Drained fabric: the `queued` term of the invariant is zero.
  EXPECT_EQ(r.bottleneck.enqueued, r.bottleneck.dequeued + r.bottleneck.purged);
  EXPECT_GT(r.bottleneck.purged, 0u);  // the flaps really purged a backlog
  EXPECT_EQ(r.scenario_actions, 11u);  // burst + 4 downs + 4 ups + shift + reest
  EXPECT_EQ(r.incast_bursts, 1u);
  EXPECT_EQ(r.flows_completed, 50u);  // 40 workload + 10 burst flows
}

// Two discs drawing from one Dynamic Threshold pool with per-priority
// alphas, under the same purge-flap churn. The pool's books must track the
// union of both discs at every step: used_bytes == the sum of the two
// snapshots, each registered queue's bytes == its disc's snapshot, and each
// disc independently satisfies enqueued == dequeued + purged + queued.
TEST(TraceSoakTest, SharedDtPoolAccountingTracksBothDiscsUnderChurn) {
  for (const std::uint64_t seed : kSoakSeeds) {
    Simulator sim;
    // Small pool + shallow alpha for priority 0: forces refusals on both
    // discs, and admission on one disc shrinks the other's DT limit.
    DynamicThresholdPolicy policy(24'000, 1.0, {0.5, 2.0});
    EgressPort port_a(sim, DataRate::GigabitsPerSecond(1),
                      Time::FromMicroseconds(1),
                      std::make_unique<FifoQueueDisc>(policy, nullptr,
                                                      /*priority=*/0));
    EgressPort port_b(sim, DataRate::GigabitsPerSecond(1),
                      Time::FromMicroseconds(1),
                      std::make_unique<FifoQueueDisc>(policy, nullptr,
                                                      /*priority=*/1));
    NullSink sink;
    port_a.ConnectTo(sink);
    port_b.ConnectTo(sink);
    ASSERT_EQ(policy.queue_count(), 2u);
    ASSERT_EQ(policy.queue_priority(0), 0);
    ASSERT_EQ(policy.queue_priority(1), 1);

    auto check = [&](const char* when) {
      const QueueSnapshot a = port_a.queue_disc().Snapshot();
      const QueueSnapshot b = port_b.queue_disc().Snapshot();
      ASSERT_EQ(policy.used_bytes(), a.bytes + b.bytes) << when;
      ASSERT_EQ(policy.queue_bytes(0), a.bytes) << when;
      ASSERT_EQ(policy.queue_bytes(1), b.bytes) << when;
      for (const EgressPort* port : {&port_a, &port_b}) {
        const QueueDiscStats& stats = port->queue_disc().stats();
        const QueueSnapshot snapshot = port->queue_disc().Snapshot();
        ASSERT_EQ(stats.enqueued,
                  stats.dequeued + stats.purged + snapshot.packets)
            << when;
      }
    };

    Rng rng(seed);
    Time at = Time::Zero();
    for (int step = 0; step < 400; ++step) {
      at = at + Time::FromMicroseconds(1 + rng.UniformInt(20));
      EgressPort& port = rng.UniformInt(2) == 0 ? port_a : port_b;
      const std::uint64_t dice = rng.UniformInt(10);
      if (dice < 6) {
        const std::uint64_t count = 1 + rng.UniformInt(8);
        sim.ScheduleAt(at, [&, count] {
          for (std::uint64_t i = 0; i < count; ++i) {
            port.Enqueue(MakePacket(rng));
          }
          check("after burst");
        });
      } else if (dice < 8) {
        const bool drop_queued = rng.UniformInt(2) == 0;
        sim.ScheduleAt(at, [&, drop_queued] {
          port.LinkDown(drop_queued);
          check("after link down");
        });
      } else {
        sim.ScheduleAt(at, [&] {
          port.LinkUp();
          check("after link up");
        });
      }
    }
    sim.Run();
    port_a.LinkUp();
    port_b.LinkUp();
    sim.Run();
    check("after drain");
    EXPECT_EQ(policy.used_bytes(), 0u) << "seed " << seed;
    // The churn must actually have contended for the pool.
    const QueueDiscStats& stats_a = port_a.queue_disc().stats();
    const QueueDiscStats& stats_b = port_b.queue_disc().stats();
    EXPECT_GT(stats_a.dequeued + stats_b.dequeued, 0u) << "seed " << seed;
    EXPECT_GT(stats_a.dropped_overflow + stats_b.dropped_overflow, 0u)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace ecnsharp

// Randomized invariant soak: seeded churn (enqueue bursts, link flaps with
// purge or drain, recoveries) against all three queue discs, with the
// flight-recorder trace as an independent oracle. After every scripted
// action the accounting invariant
//
//   enqueued == dequeued + purged + queued
//
// must hold, shared-buffer reservations must equal the queue's byte
// occupancy, and the trace's event stream must agree with the port's own
// counts — the tap observes each packet at a different code path than the
// counters, so agreement pins the drain-vs-purge interleave.
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
#include "harness/json.h"
#include "harness/schemes.h"
#include "harness/session.h"
#include "harness/sketch_export.h"
#include "harness/trace_export.h"
#include "net/egress_port.h"
#include "net/packet_tracer.h"
#include "net/queue_disc.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sched/sp_queue_disc.h"
#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/telemetry.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "trace/trace_config.h"
#include "trace/trace_recorder.h"
#include "workload/empirical_cdf.h"

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

// Asserts the accounting invariant and that the trace's event totals (one
// traced port) agree with the port's own counts. `pool` is null for a
// statically buffered disc.
void CheckInvariants(const EgressPort& port, const TraceRecorder& trace,
                     const BufferPolicy* pool, const char* when) {
  const PortCounts counts = port.counts();
  const QueueDiscStats& stats = counts.disc;
  const QueueSnapshot snapshot = port.queue_disc().Snapshot();
  ASSERT_EQ(stats.enqueued, stats.dequeued + stats.purged + snapshot.packets)
      << when;
  if (pool != nullptr) {
    ASSERT_EQ(pool->used_bytes(), snapshot.bytes) << when;
  }
  ASSERT_EQ(trace.kind_count(TraceEventKind::kEnqueue), stats.enqueued)
      << when;
  ASSERT_EQ(trace.kind_count(TraceEventKind::kDequeue), stats.dequeued)
      << when;
  ASSERT_EQ(trace.kind_count(TraceEventKind::kMark), stats.ce_marked) << when;
  ASSERT_EQ(trace.kind_count(TraceEventKind::kTransmit),
            counts.port.tx_packets)
      << when;
  ASSERT_EQ(trace.kind_count(TraceEventKind::kDrop), counts.dropped_total())
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
  port.AddTracer(trace.PortTap(0));

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
        CheckInvariants(port, trace, pool, "after burst");
      });
    } else if (dice < 8) {
      const bool drop_queued = rng.UniformInt(2) == 0;
      sim.ScheduleAt(at, [&, drop_queued] {
        port.LinkDown(drop_queued);
        ++steps;
        CheckInvariants(port, trace, pool, "after link down");
      });
    } else {
      sim.ScheduleAt(at, [&] {
        port.LinkUp();
        ++steps;
        CheckInvariants(port, trace, pool, "after link up");
      });
    }
  }
  sim.Run();
  ASSERT_EQ(steps, 400u);
  // Ensure the run is drained (the port may have ended in a down state
  // holding a backlog — bring it up and let it finish).
  port.LinkUp();
  sim.Run();
  CheckInvariants(port, trace, pool, "after drain");
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
                    std::make_unique<FifoQueueDisc>(0, nullptr, &pool));
    NullSink sink;
    port.ConnectTo(sink);
    SoakPort(sim, port, &pool, seed);
  }
}

// Multi-class discs soak twice: on a static capacity, then on a small DT
// pool (shallow alpha for class 0) that refuses per class. On the pool,
// class i must register priority i.
constexpr bool kPooled[] = {false, true};

void ExpectClassPriorities(const BufferPolicy& pool, std::size_t classes) {
  ASSERT_EQ(pool.queue_count(), classes);
  for (std::size_t i = 0; i < classes; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(pool.queue_priority(i)), i)
        << "class " << i;
  }
}

TEST(TraceSoakTest, DwrrInvariantHoldsUnderChurn) {
  for (const bool pooled : kPooled) {
    for (const std::uint64_t seed : kSoakSeeds) {
      SCOPED_TRACE(pooled ? "pooled" : "static");
      Simulator sim;
      DynamicThresholdPolicy dt(24'000, 8.0, {0.5, 2.0, 8.0});
      BufferPolicy* pool = pooled ? &dt : nullptr;
      std::vector<DwrrQueueDisc::ClassConfig> classes(3);
      classes[0].weight = 2;
      classes[1].weight = 1;
      classes[2].weight = 1;
      EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                      Time::FromMicroseconds(1),
                      std::make_unique<DwrrQueueDisc>(
                          24'000, std::move(classes), pool));
      if (pooled) ExpectClassPriorities(dt, 3);
      NullSink sink;
      port.ConnectTo(sink);
      SoakPort(sim, port, pool, seed);
    }
  }
}

TEST(TraceSoakTest, SpInvariantHoldsUnderChurn) {
  for (const bool pooled : kPooled) {
    for (const std::uint64_t seed : kSoakSeeds) {
      SCOPED_TRACE(pooled ? "pooled" : "static");
      Simulator sim;
      DynamicThresholdPolicy dt(24'000, 8.0, {0.5, 2.0, 8.0});
      BufferPolicy* pool = pooled ? &dt : nullptr;
      std::vector<SpQueueDisc::ClassConfig> classes(3);
      EgressPort port(sim, DataRate::GigabitsPerSecond(1),
                      Time::FromMicroseconds(1),
                      std::make_unique<SpQueueDisc>(24'000, std::move(classes),
                                                    pool));
      if (pooled) ExpectClassPriorities(dt, 3);
      NullSink sink;
      port.ConnectTo(sink);
      SoakPort(sim, port, pool, seed);
    }
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
                  std::make_unique<FifoQueueDisc>(0, nullptr, &pool));
  NullSink sink;
  port.ConnectTo(sink);

  TraceConfig config;
  config.enabled = true;
  TraceRecorder trace(config);
  trace.RegisterSite("soak");
  port.AddTracer(trace.PortTap(0));

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
      CheckInvariants(port, trace, &pool, "post-action");
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
  CheckInvariants(port, trace, &pool, "final");
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
  const PortCounts& c = trace.site_counts(0);

  EXPECT_EQ(c.disc.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(c.disc.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(c.disc.purged, r.bottleneck.purged);
  EXPECT_EQ(c.disc.ce_marked, r.bottleneck.ce_marked);
  EXPECT_EQ(c.disc.enqueued, c.disc.dequeued + c.disc.purged);  // drained
  EXPECT_EQ(c.drops(DropReason::kFaultLoss), r.injected_drops);
  EXPECT_EQ(c.drops(DropReason::kLinkDown), r.link_down_drops);
  // Every dequeued packet either hit the injected loss or made it onto the
  // wire (corrupted packets transmit and are discarded at the far end).
  EXPECT_EQ(c.disc.dequeued,
            c.port.tx_packets + c.drops(DropReason::kFaultLoss));
  // The event stream is an independent tally of the same packets.
  EXPECT_EQ(trace.kind_count(TraceEventKind::kEnqueue), c.disc.enqueued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDequeue), c.disc.dequeued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kMark), c.disc.ce_marked);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kTransmit), c.port.tx_packets);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDrop), c.dropped_total());
  EXPECT_EQ(trace.kind_count(TraceEventKind::kScenario), r.scenario_actions);
  EXPECT_GT(r.injected_drops, 0u);
  EXPECT_GT(r.bottleneck.purged, 0u);
}

// One dumbbell bottleneck with the flight recorder and the sketch both on
// meets every port-side loss in one run: a purging flap with a standing
// queue, arrivals while the link is down, injected loss and injected
// corruption. Every per-reason drop count the two exports render must be
// nonzero and equal the bottleneck's own counter.
TEST(TraceSoakTest, ExportedDropCountsAreTheBottlenecksOwn) {
  ExperimentSessionConfig session_config;
  session_config.workload = &WebSearchWorkload();
  session_config.load = 0.7;
  session_config.flows = 60;
  session_config.seed = 5;
  session_config.trace.enabled = true;
  session_config.sketch.enabled = true;
  ScenarioScript script;
  script.seed = 21;
  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.at = Time::Milliseconds(1);
  loss.target = -1;
  loss.drop_prob = 0.02;
  loss.corrupt_prob = 0.02;
  script.actions.push_back(loss);
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(2);
  burst.flows = 8;
  burst.bytes = 100000;
  script.actions.push_back(burst);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(2) + Time::FromMicroseconds(100);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(300);
  script.actions.push_back(up);
  session_config.scenario = script;

  ExperimentSession session(session_config);
  Dumbbell topo(session.sim(), DumbbellConfig(),
                FifoDiscFactory(Scheme::kEcnSharp, SimulationSchemeParams()));
  session.Bind(topo);
  session.Run();
  ASSERT_EQ(topo.bottleneck_count(), 1u);
  const PortCounts owner = topo.bottleneck(0).counts();

  const Json trace = TraceToJson(*session.trace());
  const Json& counters = *trace.Find("sites")->items()[0].Find("counters");
  const Json& drops = *counters.Find("drops");
  for (std::size_t r = 0; r < kDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    EXPECT_EQ(drops.Find(DropReasonName(reason))->AsUInt(),
              owner.drops(reason))
        << DropReasonName(reason);
  }
  for (const DropReason reason :
       {DropReason::kPurged, DropReason::kLinkDown, DropReason::kFaultLoss,
        DropReason::kCorrupt}) {
    EXPECT_GT(owner.drops(reason), 0u) << DropReasonName(reason);
  }
  EXPECT_EQ(counters.Find("dropped_total")->AsUInt(), owner.dropped_total());
  EXPECT_EQ(counters.Find("purged")->AsUInt(), owner.disc.purged);
  EXPECT_EQ(counters.Find("transmitted")->AsUInt(), owner.port.tx_packets);
  // The recorder's own drop events tally the same losses.
  EXPECT_EQ(session.trace()->kind_count(TraceEventKind::kDrop),
            owner.dropped_total());

  const Json sketch =
      SketchToJson(*session.sketch(), session.sketch()->last_update());
  const Json& site = sketch.Find("sites")->items()[0];
  EXPECT_EQ(site.Find("drops")->AsUInt(), owner.dropped_total());
  EXPECT_EQ(site.Find("enqueued")->AsUInt(), owner.disc.enqueued);
  EXPECT_EQ(site.Find("marks")->AsUInt(), owner.disc.ce_marked);
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

// The per-site counts of the trace and the sketch, summed over every site,
// must equal the fabric-wide aggregate the harness reports (both read the
// same discs, so a site the session skipped or mislabelled shows here), and
// the trace's and sketch's own event tallies must agree with them.
void ExpectSitesSumToHarnessCounters(const ExperimentResult& r,
                                     std::size_t sites) {
  QueueDiscStats trace_total;
  QueueDiscStats sketch_total;
  std::uint64_t transmitted = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < sites; ++i) {
    const auto s = static_cast<std::uint16_t>(i);
    const PortCounts& c = r.trace->site_counts(s);
    trace_total.enqueued += c.disc.enqueued;
    trace_total.dequeued += c.disc.dequeued;
    trace_total.purged += c.disc.purged;
    trace_total.ce_marked += c.disc.ce_marked;
    transmitted += c.port.tx_packets;
    dropped += c.dropped_total();
    const PortCounts& sc = r.sketch->site_counts(s);
    sketch_total.enqueued += sc.disc.enqueued;
    sketch_total.dequeued += sc.disc.dequeued;
    sketch_total.ce_marked += sc.disc.ce_marked;
  }
  EXPECT_EQ(trace_total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(trace_total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(trace_total.purged, r.bottleneck.purged);
  EXPECT_EQ(trace_total.ce_marked, r.bottleneck.ce_marked);
  EXPECT_EQ(sketch_total.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(sketch_total.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(sketch_total.ce_marked, r.bottleneck.ce_marked);
  const TraceRecorder& trace = *r.trace;
  EXPECT_EQ(trace.kind_count(TraceEventKind::kEnqueue), r.bottleneck.enqueued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDequeue), r.bottleneck.dequeued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kMark), r.bottleneck.ce_marked);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kTransmit), transmitted);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDrop), dropped);
  EXPECT_EQ(r.sketch->packets_observed(), r.bottleneck.enqueued);
}

// Full-stack fat-tree soak: k=4 under repeated purge-flaps with both the
// flight recorder and the sketch telemetry enabled. The per-site counts
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

  ExpectSitesSumToHarnessCounters(r, 80);
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
// stressors the inter-DC regime composes. Per-site counts summed over all
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

  ExpectSitesSumToHarnessCounters(r, 38);
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
                      std::make_unique<FifoQueueDisc>(0, nullptr, &policy,
                                                      /*priority=*/0));
    EgressPort port_b(sim, DataRate::GigabitsPerSecond(1),
                      Time::FromMicroseconds(1),
                      std::make_unique<FifoQueueDisc>(0, nullptr, &policy,
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

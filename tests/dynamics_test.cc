// Dynamics subsystem tests: scenario JSON round-trip, the strict Json
// parser, fault injection, link flaps (purge vs drain) with shared-buffer
// accounting, ECN# re-estimation, ScenarioEngine determinism, and the
// headline guarantee that scenario sweeps export byte-identical JSON for
// any --jobs value.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ecn_sharp.h"
#include "dynamics/scenario.h"
#include "dynamics/scenario_engine.h"
#include "harness/config_json.h"
#include "harness/experiment.h"
#include "net/egress_port.h"
#include "net/link_fault.h"
#include "net/packet_tracer.h"
#include "buffer/policies.h"
#include "runner/job.h"
#include "runner/json_export.h"
#include "runner/sweep.h"
#include "sched/fifo_queue_disc.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace ecnsharp {
namespace {

std::unique_ptr<Packet> MakePacket(std::uint32_t bytes = 1500) {
  auto pkt = std::make_unique<Packet>();
  pkt->size_bytes = bytes;
  pkt->ecn = EcnCodepoint::kEct0;
  return pkt;
}

struct CountingSink : PacketSink {
  std::size_t received = 0;
  void HandlePacket(std::unique_ptr<Packet>) override { ++received; }
};

// ---------------------------------------------------------------------------
// Json::Parse
// ---------------------------------------------------------------------------

TEST(JsonParseTest, ParsesScalarsContainersAndEscapes) {
  Json json;
  std::string error;
  ASSERT_TRUE(Json::Parse(
      R"({"a": 1, "b": [true, null, "xA\n"], "c": -2.5, "d": {}})",
      &json, &error))
      << error;
  ASSERT_TRUE(json.IsObject());
  EXPECT_EQ(json.Find("a")->AsInt(0), 1);
  const Json* b = json.Find("b");
  ASSERT_TRUE(b != nullptr && b->IsArray());
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].AsBool(false));
  EXPECT_TRUE(b->items()[1].IsNull());
  EXPECT_EQ(b->items()[2].AsString(), "xA\n");
  EXPECT_DOUBLE_EQ(json.Find("c")->AsDouble(0.0), -2.5);
  EXPECT_TRUE(json.Find("d")->IsObject());
  EXPECT_EQ(json.Find("missing"), nullptr);
}

TEST(JsonParseTest, RoundTripsItsOwnDump) {
  Json json;
  ASSERT_TRUE(Json::Parse(
      R"({"x": [1, 2.25, "s"], "y": {"z": false}})", &json));
  Json again;
  ASSERT_TRUE(Json::Parse(json.Dump(), &again));
  EXPECT_EQ(json.Dump(), again.Dump());
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  const char* kBad[] = {
      "",                    // empty
      "{",                   // unterminated object
      "[1, 2,]",             // trailing comma
      "{\"a\" 1}",           // missing colon
      "\"unterminated",      // unterminated string
      "{\"a\": 1} trailing", // garbage after document
      "nul",                 // truncated literal
      "01",                  // leading zero
  };
  for (const char* text : kBad) {
    Json json;
    std::string error;
    EXPECT_FALSE(Json::Parse(text, &json, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// ---------------------------------------------------------------------------
// Scenario script JSON
// ---------------------------------------------------------------------------

ScenarioScript FullScript() {
  ScenarioScript script;
  script.seed = 9;
  ScenarioAction a;
  a.kind = ScenarioActionKind::kSetHostDelay;
  a.at = Time::FromMicroseconds(1000);
  a.target = 2;
  a.delay_us = 40.0;
  a.delay_hi_us = 90.0;
  a.repeat = 3;
  a.period = Time::FromMicroseconds(500);
  a.jitter = Time::FromMicroseconds(50);
  script.actions.push_back(a);

  ScenarioAction b;
  b.kind = ScenarioActionKind::kLinkDown;
  b.at = Time::FromMicroseconds(2000);
  b.target = -1;
  b.drop_queued = true;
  script.actions.push_back(b);

  ScenarioAction c;
  c.kind = ScenarioActionKind::kInjectLoss;
  c.at = Time::FromMicroseconds(500);
  c.target = -1;
  c.drop_prob = 0.01;
  c.corrupt_prob = 0.005;
  script.actions.push_back(c);

  ScenarioAction d;
  d.kind = ScenarioActionKind::kIncastBurst;
  d.at = Time::FromMicroseconds(3000);
  d.flows = 16;
  d.bytes = 20000;
  script.actions.push_back(d);

  ScenarioAction e = d;
  e.at = Time::FromMicroseconds(4000);
  e.bytes = 3000;
  e.bytes_hi = 60000;
  script.actions.push_back(e);
  return script;
}

TEST(ScenarioJsonTest, RoundTripsThroughDumpAndParse) {
  const std::string text = ToJson(FullScript()).Dump();
  ScenarioScript parsed;
  std::string error;
  ASSERT_TRUE(ParseScenarioScript(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seed, 9u);
  ASSERT_EQ(parsed.actions.size(), 5u);
  EXPECT_EQ(parsed.actions[0].kind, ScenarioActionKind::kSetHostDelay);
  EXPECT_EQ(parsed.actions[0].repeat, 3u);
  EXPECT_TRUE(parsed.actions[1].drop_queued);
  EXPECT_DOUBLE_EQ(parsed.actions[2].corrupt_prob, 0.005);
  EXPECT_EQ(parsed.actions[3].flows, 16u);
  EXPECT_EQ(parsed.actions[3].bytes_hi, 0u);
  EXPECT_EQ(parsed.actions[4].bytes_hi, 60000u);
  // A fixed-size burst writes no bytes_hi.
  EXPECT_EQ(text.find("bytes_hi"), text.rfind("bytes_hi"));
  // Canonical form is a fixed point.
  EXPECT_EQ(ToJson(parsed).Dump(), text);
}

TEST(ScenarioJsonTest, AcceptsMinimalActions) {
  ScenarioScript parsed;
  std::string error;
  ASSERT_TRUE(ParseScenarioScript(
      R"({"actions": [{"kind": "link_up"}]})", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.seed, 1u);  // default
  ASSERT_EQ(parsed.actions.size(), 1u);
  EXPECT_EQ(parsed.actions[0].kind, ScenarioActionKind::kLinkUp);
  EXPECT_EQ(parsed.actions[0].repeat, 1u);
}

TEST(ScenarioJsonTest, RejectsInvalidScripts) {
  const char* kBad[] = {
      R"([1, 2])",                                            // not an object
      R"({"seed": 1})",                                       // no actions
      R"({"actions": [{"kind": "warp_drive"}]})",             // unknown kind
      R"({"actions": [{"at_us": 5}]})",                       // missing kind
      R"({"actions": [{"kind": "link_up", "at_us": -1}]})",   // negative time
      R"({"actions": [{"kind": "inject_loss", "drop_prob": 1.5}]})",
      R"({"actions": [{"kind": "inject_loss", "drop_prob": 0.6,
                       "corrupt_prob": 0.6}]})",              // sum > 1
      R"({"actions": [{"kind": "link_up", "repeat": 2}]})",   // no period
      R"({"actions": [{"kind": "set_link_rate", "gbps": 0}]})",
      R"({"actions": [{"kind": "set_link_rate", "gbps": -2.5}]})",
      R"({"actions": [{"kind": "set_link_rate"}]})",         // gbps missing
      R"({"actions": [{"kind": "set_link_rate", "gbps": 1e13}]})",  // > int64
      R"({"actions": [{"kind": "incast_burst", "flows": 4294967297}]})",
      R"({"actions": [{"kind": "link_up", "repeat": 4294967296,
                       "period_us": 10}]})",                  // wraps
      // A misspelled key, a string where a port id belongs, and a
      // negative propagation delay.
      R"({"actions": [{"kind": "link_down", "at": 5000, "target": -1}]})",
      R"({"actions": [{"kind": "link_down", "target": "spine"}]})",
      R"({"actions": [{"kind": "set_link_delay", "delay_us": -50}]})",
      "not json at all",
  };
  for (const char* text : kBad) {
    ScenarioScript parsed;
    std::string error;
    EXPECT_FALSE(ParseScenarioScript(text, &parsed, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ScenarioJsonTest, KindNamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(ScenarioActionKind::kReestimateEcnSharp);
       ++i) {
    ScenarioScript script;
    script.actions.emplace_back();
    script.actions[0].kind = static_cast<ScenarioActionKind>(i);
    script.actions[0].gbps = 1.0;  // set_link_rate needs a rate
    const Json json = ToJson(script);
    EXPECT_EQ(json.Find("actions")->items()[0].Find("kind")->AsString(),
              ScenarioActionKindName(script.actions[0].kind));
    ScenarioScript parsed;
    ASSERT_TRUE(ScenarioScriptFromJson(json, &parsed));
    EXPECT_EQ(parsed.actions[0].kind, script.actions[0].kind);
  }
  ScenarioScript ignored;
  EXPECT_FALSE(
      ParseScenarioScript(R"({"actions": [{"kind": "bogus"}]})", &ignored));
}

// ---------------------------------------------------------------------------
// LinkFaultInjector
// ---------------------------------------------------------------------------

TEST(LinkFaultInjectorTest, SameSeedSameVerdictSequence) {
  LinkFaultInjector a(5, 0.3, 0.2);
  LinkFaultInjector b(5, 0.3, 0.2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(static_cast<int>(a.Decide()), static_cast<int>(b.Decide()));
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.corruptions(), b.corruptions());
}

TEST(LinkFaultInjectorTest, RatesApproximateProbabilities) {
  LinkFaultInjector injector(11, 0.3, 0.2);
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) injector.Decide();
  EXPECT_NEAR(static_cast<double>(injector.drops()) / kDraws, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(injector.corruptions()) / kDraws, 0.2,
              0.02);
}

TEST(LinkFaultInjectorTest, ZeroRatesAlwaysDeliver) {
  LinkFaultInjector injector(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<int>(injector.Decide()),
              static_cast<int>(LinkFaultInjector::Verdict::kDeliver));
  }
  EXPECT_EQ(injector.drops(), 0u);
  EXPECT_EQ(injector.corruptions(), 0u);
}

// ---------------------------------------------------------------------------
// EgressPort fault injection and link flaps
// ---------------------------------------------------------------------------

TEST(EgressPortFaultTest, CertainLossDropsEverythingWithoutTransmitting) {
  Simulator sim;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1),
                  std::make_unique<FifoQueueDisc>(1ull << 20, nullptr));
  CountingSink sink;
  port.ConnectTo(sink);
  TextTracer tracer;
  port.AddTracer(&tracer);
  LinkFaultInjector fault(3, /*drop_prob=*/1.0, /*corrupt_prob=*/0.0);
  port.SetFaultInjector(&fault);

  for (int i = 0; i < 10; ++i) port.Enqueue(MakePacket());
  sim.Run();

  EXPECT_EQ(sink.received, 0u);
  EXPECT_EQ(port.counters().dropped_fault, 10u);
  EXPECT_EQ(port.counters().tx_packets, 0u);  // loss consumes no bandwidth
  EXPECT_EQ(fault.drops(), 10u);
  EXPECT_EQ(tracer.drops(), 10u);
}

TEST(EgressPortFaultTest, CertainCorruptionTransmitsButNeverDelivers) {
  Simulator sim;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1),
                  std::make_unique<FifoQueueDisc>(1ull << 20, nullptr));
  CountingSink sink;
  port.ConnectTo(sink);
  TextTracer tracer;
  port.AddTracer(&tracer);
  LinkFaultInjector fault(3, /*drop_prob=*/0.0, /*corrupt_prob=*/1.0);
  port.SetFaultInjector(&fault);

  for (int i = 0; i < 10; ++i) port.Enqueue(MakePacket());
  sim.Run();

  EXPECT_EQ(sink.received, 0u);
  // Corruption consumes bandwidth: the frame is fully serialized.
  EXPECT_EQ(port.counters().tx_packets, 10u);
  EXPECT_EQ(port.counters().corrupted, 10u);
  EXPECT_EQ(fault.corruptions(), 10u);
  EXPECT_EQ(tracer.drops(), 10u);  // one kCorrupt drop per packet
}

// A corrupted frame is lost only when it fails its CRC at the far end: on a
// long wire it is transmitted long before it is counted, and the count
// lands together with the tracer's kCorrupt drop.
TEST(EgressPortFaultTest, CorruptionIsCountedWhenTheFrameReachesTheFarEnd) {
  Simulator sim;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::Milliseconds(1),
                  std::make_unique<FifoQueueDisc>(1ull << 20, nullptr));
  CountingSink sink;
  port.ConnectTo(sink);
  TextTracer tracer;
  port.AddTracer(&tracer);
  LinkFaultInjector fault(3, /*drop_prob=*/0.0, /*corrupt_prob=*/1.0);
  port.SetFaultInjector(&fault);

  port.Enqueue(MakePacket());
  sim.RunUntil(Time::FromMicroseconds(500));  // serialized, still on the wire
  EXPECT_EQ(port.counters().tx_packets, 1u);
  EXPECT_EQ(fault.corruptions(), 1u);
  EXPECT_EQ(port.counters().corrupted, 0u);
  EXPECT_EQ(tracer.drops(), 0u);

  sim.Run();
  EXPECT_EQ(port.counters().corrupted, 1u);
  EXPECT_EQ(tracer.drops(), 1u);
  EXPECT_EQ(sink.received, 0u);
}

TEST(EgressPortFlapTest, DropQueuedPurgesBacklogAndReleasesSharedBuffer) {
  Simulator sim;
  DynamicThresholdPolicy pool(1ull << 20, 8.0);
  auto disc = std::make_unique<FifoQueueDisc>(0, nullptr, &pool);
  FifoQueueDisc* fifo = disc.get();
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1), std::move(disc));
  CountingSink sink;
  port.ConnectTo(sink);

  // 10 arrivals at t=0: the first goes straight to the transmitter, 9 queue.
  for (int i = 0; i < 10; ++i) port.Enqueue(MakePacket(1500));
  EXPECT_EQ(pool.used_bytes(), 9u * 1500u);

  port.LinkDown(/*drop_queued=*/true);
  EXPECT_FALSE(port.link_up());
  // Backlog purged, reservations released, invariant holds:
  // enqueued == dequeued + purged + queued.
  EXPECT_EQ(pool.used_bytes(), 0u);
  EXPECT_EQ(fifo->stats().enqueued, 10u);
  EXPECT_EQ(fifo->stats().dequeued, 1u);
  EXPECT_EQ(fifo->stats().purged, 9u);
  EXPECT_EQ(fifo->Snapshot().packets, 0u);

  // The packet already committed to the wire still arrives.
  sim.Run();
  EXPECT_EQ(sink.received, 1u);

  // Arrivals during the outage are dropped at the port (no carrier).
  port.Enqueue(MakePacket());
  EXPECT_EQ(port.counters().dropped_link_down, 1u);

  port.LinkUp();
  sim.Run();
  EXPECT_EQ(sink.received, 1u);  // nothing survived to drain
}

TEST(EgressPortFlapTest, DrainModeHoldsBacklogThroughOutage) {
  Simulator sim;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1),
                  std::make_unique<FifoQueueDisc>(1ull << 20, nullptr));
  CountingSink sink;
  port.ConnectTo(sink);

  for (int i = 0; i < 5; ++i) port.Enqueue(MakePacket());
  port.LinkDown(/*drop_queued=*/false);
  sim.Run();
  // Only the in-flight packet arrived; the backlog is parked.
  EXPECT_EQ(sink.received, 1u);
  EXPECT_EQ(port.queue_disc().Snapshot().packets, 4u);

  port.LinkUp();
  sim.Run();
  EXPECT_EQ(sink.received, 5u);
  EXPECT_EQ(port.queue_disc().stats().purged, 0u);
}

// Regression: LinkDown(drop_queued=true) on an already-down port used to
// early-return before the purge, leaving the parked backlog (and its
// shared-buffer reservations) in place. A drain-preserving outage escalated
// to a purging one must still drop the backlog.
TEST(EgressPortFlapTest, EscalatingDrainOutageToPurgeDropsBacklog) {
  Simulator sim;
  DynamicThresholdPolicy pool(1ull << 20, 8.0);
  auto disc = std::make_unique<FifoQueueDisc>(0, nullptr, &pool);
  FifoQueueDisc* fifo = disc.get();
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1), std::move(disc));
  CountingSink sink;
  port.ConnectTo(sink);

  for (int i = 0; i < 6; ++i) port.Enqueue(MakePacket(1500));
  port.LinkDown(/*drop_queued=*/false);  // park 5, 1 in flight
  EXPECT_EQ(fifo->Snapshot().packets, 5u);

  port.LinkDown(/*drop_queued=*/true);  // escalate: backlog must go
  EXPECT_EQ(fifo->Snapshot().packets, 0u);
  EXPECT_EQ(fifo->stats().purged, 5u);
  EXPECT_EQ(pool.used_bytes(), 0u);

  port.LinkUp();
  sim.Run();
  EXPECT_EQ(sink.received, 1u);  // only the in-flight packet survived
  EXPECT_EQ(fifo->stats().enqueued,
            fifo->stats().dequeued + fifo->stats().purged);
}

// Regression: PurgeAll used to notify the tracer before updating the
// disc's accounting, so a TextTracer (whose default OnPurge forwards to
// OnDrop) observed stale snapshots and, in the drain-vs-purge interleave,
// missed events entirely. Pin both: every purged packet produces exactly
// one line, and the `after` snapshot handed to OnPurge matches the disc's
// live Snapshot() at callback time.
TEST(EgressPortFlapTest, TracerSeesEveryPurgeWithConsistentSnapshots) {
  struct PurgeAuditor : PacketTracer {
    const QueueDisc* disc = nullptr;
    std::size_t purges = 0;
    std::uint32_t last_packets = 0;
    bool consistent = true;
    void OnTransmit(const Packet&, Time) override {}
    void OnPurge(const Packet&, Time, const QueueSnapshot& after) override {
      // Accounting is updated before each callback: the snapshot the hook
      // receives is the disc's current truth, and it shrinks by one packet
      // per purge.
      consistent = consistent && after.packets == disc->Snapshot().packets &&
                   after.bytes == disc->Snapshot().bytes &&
                   (purges == 0 || after.packets == last_packets - 1);
      last_packets = after.packets;
      ++purges;
    }
  };

  Simulator sim;
  auto disc = std::make_unique<FifoQueueDisc>(1ull << 20, nullptr);
  FifoQueueDisc* fifo = disc.get();
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1), std::move(disc));
  CountingSink sink;
  port.ConnectTo(sink);

  PurgeAuditor auditor;
  auditor.disc = fifo;
  port.AddTracer(&auditor);
  for (int i = 0; i < 8; ++i) port.Enqueue(MakePacket(1500));
  port.LinkDown(/*drop_queued=*/true);
  EXPECT_EQ(auditor.purges, 7u);  // 1 of 8 was already in flight
  EXPECT_TRUE(auditor.consistent);
  EXPECT_EQ(fifo->stats().purged, 7u);

  // The default OnPurge forwards to OnDrop(kPurged), so text tracers see
  // purges as drop lines without overriding the hook.
  TextTracer text;
  port.AddTracer(&text);
  port.LinkUp();
  sim.Run();  // deliver the surviving in-flight packet
  for (int i = 0; i < 4; ++i) port.Enqueue(MakePacket(1500));
  port.LinkDown(/*drop_queued=*/true);
  EXPECT_EQ(text.drops(), 3u);  // 1 of 4 in flight again
  std::size_t purge_lines = 0;
  for (const std::string& line : text.lines()) {
    if (line.find("reason=purged") != std::string::npos) ++purge_lines;
  }
  EXPECT_EQ(purge_lines, 3u);
}

TEST(EgressPortFlapTest, RedundantTransitionsAreNoOps) {
  Simulator sim;
  EgressPort port(sim, DataRate::GigabitsPerSecond(10), Time::Zero(),
                  std::make_unique<FifoQueueDisc>(1ull << 20, nullptr));
  CountingSink sink;
  port.ConnectTo(sink);
  port.LinkUp();  // already up
  EXPECT_TRUE(port.link_up());
  port.LinkDown(true);
  port.LinkDown(true);  // already down
  EXPECT_FALSE(port.link_up());
  port.LinkUp();
  port.Enqueue(MakePacket());
  sim.Run();
  EXPECT_EQ(sink.received, 1u);
}

// ---------------------------------------------------------------------------
// ECN# re-estimation
// ---------------------------------------------------------------------------

TEST(EcnSharpReconfigureTest, SwapsThresholdsAndRestartsMarkerState) {
  EcnSharpConfig initial;
  initial.ins_target = Time::FromMicroseconds(100);
  initial.pst_target = Time::FromMicroseconds(30);
  initial.pst_interval = Time::FromMicroseconds(100);
  EcnSharpAqm aqm(initial);

  // Drive the persistent state machine on: sojourn above pst_target for
  // longer than one interval. (t > 0: the marker uses t == 0 as its
  // "no observation yet" sentinel.)
  QueueSnapshot snapshot{4, 6000};
  auto pkt = MakePacket();
  aqm.OnDequeue(*pkt, snapshot, Time::FromMicroseconds(10),
                Time::FromMicroseconds(50));
  aqm.OnDequeue(*pkt, snapshot, Time::FromMicroseconds(160),
                Time::FromMicroseconds(50));
  EXPECT_TRUE(aqm.marking_state());
  const std::uint64_t persistent_before = aqm.persistent_marks();
  EXPECT_GE(persistent_before, 1u);

  EcnSharpConfig shifted = RuleOfThumbConfig(Time::FromMicroseconds(600),
                                             Time::FromMicroseconds(300),
                                             1.0);
  aqm.Reconfigure(shifted);
  EXPECT_EQ(aqm.config().ins_target, shifted.ins_target);
  EXPECT_EQ(aqm.config().pst_interval, shifted.pst_interval);
  // State machine restarted; cumulative counters preserved.
  EXPECT_FALSE(aqm.marking_state());
  EXPECT_EQ(aqm.marking_count(), 0u);
  EXPECT_EQ(aqm.persistent_marks(), persistent_before);
}

// ---------------------------------------------------------------------------
// ScenarioEngine
// ---------------------------------------------------------------------------

std::vector<std::pair<double, double>> RunDelayScenario(std::uint64_t seed) {
  Simulator sim;
  ScenarioScript script;
  script.seed = seed;
  ScenarioAction a;
  a.kind = ScenarioActionKind::kSetHostDelay;
  a.target = 0;
  a.at = Time::FromMicroseconds(10);
  a.delay_us = 10.0;
  a.delay_hi_us = 50.0;
  a.repeat = 5;
  a.period = Time::FromMicroseconds(20);
  a.jitter = Time::FromMicroseconds(5);
  script.actions.push_back(a);

  std::vector<std::pair<double, double>> fired;
  ScenarioHooks hooks;
  hooks.set_host_delay = [&fired, &sim](int, Time delay) {
    fired.push_back({sim.Now().ToMicroseconds(), delay.ToMicroseconds()});
  };
  ScenarioEngine engine(sim, script, hooks);
  engine.Install();
  EXPECT_EQ(engine.actions_scheduled(), 5u);
  sim.Run();
  EXPECT_EQ(engine.actions_fired(), 5u);
  return fired;
}

TEST(ScenarioEngineTest, OccurrencesAreSeedDeterministic) {
  const auto a = RunDelayScenario(3);
  const auto b = RunDelayScenario(3);
  const auto c = RunDelayScenario(4);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different seed => different jitter/delay draws
  // Occurrences land inside [at + k*period, at + k*period + jitter] with a
  // drawn delay inside [10, 50].
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double base = 10.0 + 20.0 * static_cast<double>(k);
    EXPECT_GE(a[k].first, base);
    EXPECT_LE(a[k].first, base + 5.0);
    EXPECT_GE(a[k].second, 10.0);
    EXPECT_LE(a[k].second, 50.0);
  }
}

// The burst sizes `script` fires, one vector per burst occurrence, and the
// host delays it sets.
struct Fired {
  std::vector<std::vector<std::uint64_t>> bursts;
  std::vector<Time> delays;
};

Fired RunScript(const ScenarioScript& script) {
  Simulator sim;
  Fired fired;
  ScenarioHooks hooks;
  hooks.incast = [&fired](const std::vector<std::uint64_t>& sizes) {
    fired.bursts.push_back(sizes);
  };
  hooks.set_host_delay = [&fired](int, Time delay) {
    fired.delays.push_back(delay);
  };
  ScenarioEngine engine(sim, script, hooks);
  engine.Install();
  sim.Run();
  return fired;
}

TEST(ScenarioEngineTest, BurstSizesAreDrawnInFlowOrder) {
  ScenarioScript script;
  script.seed = 11;
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::FromMicroseconds(10);
  burst.flows = 20;
  burst.bytes = 3000;
  burst.bytes_hi = 60000;
  script.actions.push_back(burst);
  const Fired fired = RunScript(script);
  ASSERT_EQ(fired.bursts.size(), 1u);
  Rng rng(11);
  std::vector<std::uint64_t> expected;
  for (int f = 0; f < 20; ++f) expected.push_back(3000 + rng.UniformInt(57001));
  EXPECT_EQ(fired.bursts[0], expected);
}

TEST(ScenarioEngineTest, FixedSizeBurstsDrawNothing) {
  ScenarioAction shift;
  shift.kind = ScenarioActionKind::kSetHostDelay;
  shift.at = Time::FromMicroseconds(20);
  shift.target = 0;
  shift.delay_us = 10.0;
  shift.delay_hi_us = 50.0;
  ScenarioScript alone;
  alone.seed = 5;
  alone.actions = {shift};

  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::FromMicroseconds(10);
  burst.flows = 8;
  burst.bytes = 20000;
  ScenarioScript after_burst = alone;
  after_burst.actions.insert(after_burst.actions.begin(), burst);

  const Fired fired = RunScript(after_burst);
  ASSERT_EQ(fired.bursts.size(), 1u);
  EXPECT_EQ(fired.bursts[0], std::vector<std::uint64_t>(8, 20000));
  ASSERT_EQ(fired.delays.size(), 1u);
  EXPECT_EQ(fired.delays, RunScript(alone).delays);
}

TEST(ScenarioEngineTest, MissingHooksAndUnknownTargetsAreIgnored) {
  Simulator sim;
  ScenarioScript script;
  ScenarioAction a;
  a.kind = ScenarioActionKind::kLinkDown;
  a.target = 99;
  script.actions.push_back(a);
  a.kind = ScenarioActionKind::kReestimateEcnSharp;
  script.actions.push_back(a);
  ScenarioHooks hooks;  // everything unset
  ScenarioEngine engine(sim, script, hooks);
  engine.Install();
  sim.Run();
  EXPECT_EQ(engine.actions_fired(), 2u);
  EXPECT_EQ(engine.injected_drops(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: RunDumbbell with scenarios
// ---------------------------------------------------------------------------

ScenarioScript SmallDynamicScript();

DumbbellExperimentConfig SmallDynamicConfig() {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.seed = 5;
  config.scenario = SmallDynamicScript();
  return config;
}

// Deliberately topology-agnostic: target -1 resolves to the primary
// bottleneck on either topology, and the incast burst converges on each
// topology's IncastTarget.
ScenarioScript SmallDynamicScript() {
  ScenarioScript script;
  script.seed = 21;
  ScenarioAction loss;
  loss.kind = ScenarioActionKind::kInjectLoss;
  loss.at = Time::Milliseconds(1);
  loss.target = -1;
  loss.drop_prob = 0.05;
  loss.corrupt_prob = 0.01;
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

  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(4);
  script.actions.push_back(reest);
  return script;
}

LeafSpineExperimentConfig SmallDynamicLeafSpineConfig() {
  LeafSpineExperimentConfig config;
  config.topo.spines = 2;
  config.topo.leaves = 2;
  config.topo.hosts_per_leaf = 4;
  config.flows = 40;
  config.seed = 5;
  config.scenario = SmallDynamicScript();
  return config;
}

TEST(DynamicDumbbellTest, CountsScenarioActivityAndStillCompletes) {
  const ExperimentResult r = RunDumbbell(SmallDynamicConfig());
  EXPECT_EQ(r.scenario_actions, 5u);
  EXPECT_EQ(r.incast_bursts, 1u);
  EXPECT_EQ(r.burst_flows_started, 8u);
  EXPECT_EQ(r.burst_flows_completed, 8u);
  // Workload + burst flows all complete despite loss and the flap.
  EXPECT_EQ(r.flows_started, 48u);
  EXPECT_EQ(r.flows_completed, 48u);
  // 5% loss on the bottleneck for most of the run must show up.
  EXPECT_GT(r.injected_drops, 0u);
}

TEST(DynamicDumbbellTest, RepeatRunsAreBitwiseEqual) {
  const DumbbellExperimentConfig config = SmallDynamicConfig();
  const ExperimentResult a = RunDumbbell(config);
  const ExperimentResult b = RunDumbbell(config);
  EXPECT_EQ(ToJson(a).Dump(), ToJson(b).Dump());
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.injected_corruptions, b.injected_corruptions);
  EXPECT_EQ(a.link_down_drops, b.link_down_drops);
}

TEST(DynamicDumbbellTest, StaticConfigReportsNoDynamics) {
  DumbbellExperimentConfig config;
  config.flows = 30;
  config.seed = 2;
  const ExperimentResult r = RunDumbbell(config);
  EXPECT_EQ(r.scenario_actions, 0u);
  EXPECT_EQ(r.injected_drops, 0u);
  // Empty scenarios leave the exported record untouched (no scenario or
  // dynamics keys).
  const std::string dump = runner::SweepToJson(
      "static", {{"static", config}},
      {runner::RunJob({"static", config})}).Dump();
  EXPECT_EQ(dump.find("\"scenario\""), std::string::npos);
  EXPECT_EQ(dump.find("\"injected_drops\""), std::string::npos);
}

// The acceptance bar for the subsystem: a sweep mixing scenario configs
// exports byte-identical JSON for --jobs=1 and --jobs=4.
TEST(DynamicDumbbellTest, ScenarioSweepIsJobCountInvariant) {
  std::vector<runner::JobSpec> specs;
  for (const Scheme scheme : {Scheme::kDctcpRedTail, Scheme::kEcnSharp}) {
    DumbbellExperimentConfig config = SmallDynamicConfig();
    config.scheme = scheme;
    specs.push_back({std::string(SchemeName(scheme)) + "/dyn", config});
  }
  DumbbellExperimentConfig plain;
  plain.flows = 40;
  plain.seed = 5;
  specs.push_back({"static", plain});

  runner::SweepOptions sequential;
  sequential.jobs = 1;
  sequential.progress = false;
  const std::vector<runner::JobResult> r1 = runner::RunJobs(specs, sequential);
  runner::SweepOptions parallel = sequential;
  parallel.jobs = 4;
  const std::vector<runner::JobResult> r4 = runner::RunJobs(specs, parallel);

  const std::string d1 = runner::SweepToJson("dyn", specs, r1).Dump();
  const std::string d4 = runner::SweepToJson("dyn", specs, r4).Dump();
  EXPECT_EQ(d1, d4);
  // The scenario itself is part of the exported record.
  EXPECT_NE(d1.find("\"scenario\""), std::string::npos);
  EXPECT_NE(d1.find("\"inject_loss\""), std::string::npos);
  EXPECT_NE(d1.find("\"injected_drops\""), std::string::npos);
}

// The very script the dumbbell tests run, unmodified, on the fabric: the
// session layer resolves ports, bursts, and re-estimation through the
// Topology interface, so leaf-spine gets dynamics for free.
TEST(DynamicLeafSpineTest, CountsScenarioActivityAndStillCompletes) {
  const ExperimentResult r = RunLeafSpine(SmallDynamicLeafSpineConfig());
  EXPECT_EQ(r.scenario_actions, 5u);
  EXPECT_EQ(r.incast_bursts, 1u);
  EXPECT_EQ(r.burst_flows_started, 8u);
  EXPECT_EQ(r.burst_flows_completed, 8u);
  EXPECT_EQ(r.flows_started, 48u);
  EXPECT_EQ(r.flows_completed, 48u);
}

TEST(DynamicLeafSpineTest, RepeatRunsAreBitwiseEqual) {
  const LeafSpineExperimentConfig config = SmallDynamicLeafSpineConfig();
  const ExperimentResult a = RunLeafSpine(config);
  const ExperimentResult b = RunLeafSpine(config);
  EXPECT_EQ(ToJson(a).Dump(), ToJson(b).Dump());
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.link_down_drops, b.link_down_drops);
}

TEST(DynamicLeafSpineTest, ScenarioLandsInExportedRecord) {
  const LeafSpineExperimentConfig config = SmallDynamicLeafSpineConfig();
  const std::string dump = runner::SweepToJson(
      "lsdyn", {{"lsdyn", config}},
      {runner::RunJob({"lsdyn", config})}).Dump();
  EXPECT_NE(dump.find("\"topology\": \"leafspine\""), std::string::npos);
  EXPECT_NE(dump.find("\"scenario\""), std::string::npos);
  EXPECT_NE(dump.find("\"scenario_actions\""), std::string::npos);
}

}  // namespace
}  // namespace ecnsharp

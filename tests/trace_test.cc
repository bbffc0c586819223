// Flight-recorder tracing subsystem tests: --trace spec parsing, the
// TraceRecorder ring (overwrite, per-kind totals), per-site depth series and
// port counts, per-flow transport series, JSON/CSV export determinism, and
// the end-to-end RunDumbbell surface (result.trace).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/config_json.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/trace_export.h"
#include "net/egress_port.h"
#include "net/packet.h"
#include "net/queue_disc.h"
#include "sim/time.h"
#include "trace/trace_config.h"
#include "trace/trace_event.h"
#include "trace/trace_recorder.h"

namespace ecnsharp {
namespace {

// ---------------------------------------------------------------------------
// TraceConfigFromSpec
// ---------------------------------------------------------------------------

TEST(TraceSpecTest, AcceptsDefaultAliases) {
  for (const char* alias : {"on", "default", "1"}) {
    TraceConfig config;
    std::string error;
    ASSERT_TRUE(TraceConfigFromSpec(alias, &config, &error)) << alias << error;
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.ring_capacity, TraceConfig().ring_capacity);
    EXPECT_EQ(config.max_series_points, TraceConfig().max_series_points);
    EXPECT_TRUE(config.queue_series);
    EXPECT_TRUE(config.flow_series);
  }
}

TEST(TraceSpecTest, FullRaisesRingAndSeriesLimits) {
  TraceConfig config;
  ASSERT_TRUE(TraceConfigFromSpec("full", &config, nullptr));
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.ring_capacity, 1u << 20);
  EXPECT_EQ(config.max_series_points, 1u << 20);
}

TEST(TraceSpecTest, ParsesKeyValueTerms) {
  TraceConfig config;
  std::string error;
  ASSERT_TRUE(TraceConfigFromSpec("events:128,points:16,queue:off,flows:off",
                             &config, &error))
      << error;
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.ring_capacity, 128u);
  EXPECT_EQ(config.max_series_points, 16u);
  EXPECT_FALSE(config.queue_series);
  EXPECT_FALSE(config.flow_series);

  // Unmentioned fields keep defaults.
  ASSERT_TRUE(TraceConfigFromSpec("events:10", &config, &error));
  EXPECT_EQ(config.ring_capacity, 10u);
  EXPECT_TRUE(config.queue_series);
}

TEST(TraceSpecTest, RejectsDuplicateKeys) {
  // A repeated key is ambiguous (which value did the user mean?) — the
  // shared spec grammar rejects it rather than silently taking the last.
  TraceConfig config;
  std::string error;
  ASSERT_FALSE(TraceConfigFromSpec("events:10,events:20", &config, &error));
  EXPECT_EQ(error, "duplicate key 'events'");
  ASSERT_FALSE(
      TraceConfigFromSpec("queue:on,points:4,queue:off", &config, &error));
  EXPECT_EQ(error, "duplicate key 'queue'");
  // A failed parse leaves the output untouched.
  EXPECT_FALSE(config.enabled);
}

TEST(TraceSpecTest, RejectsMalformedSpecsWithAMessage) {
  const char* kBad[] = {
      "",               // empty
      "bogus:5",        // unknown key
      "events:0",       // zero capacity
      "events:999999999",  // 9 digits, over the cap
      "events:99999999999999999999",  // past 2^64, refused, not wrapped
      "events:17000000",   // over the 16Mi cap
      "events:abc",     // non-numeric
      "events:",        // missing value
      ":5",             // missing key
      "queue:maybe",    // bad on/off
      "flows:2",        // bad on/off
      "noval",          // no colon
      "events:5,,queue:on",  // empty term
  };
  for (const char* spec : kBad) {
    TraceConfig config;
    std::string error;
    EXPECT_FALSE(TraceConfigFromSpec(spec, &config, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // The message names the offending key so CLI exit-2 output is actionable.
  TraceConfig config;
  std::string error;
  ASSERT_FALSE(TraceConfigFromSpec("bogus:5", &config, &error));
  EXPECT_EQ(error, "bogus is not a known key");
}

// ---------------------------------------------------------------------------
// TraceRecorder ring
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RingOverwritesOldestButTotalsSurvive) {
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 8;
  TraceRecorder recorder(config);

  for (int i = 0; i < 20; ++i) {
    recorder.OnScenarioAction(Time::FromMicroseconds(i), /*kind=*/0,
                              /*target=*/i);
  }

  EXPECT_EQ(recorder.total_events(), 20u);
  EXPECT_EQ(recorder.overwritten(), 12u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kScenario), 20u);

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest retained first: targets 12..19 in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, TraceEventKind::kScenario);
    EXPECT_EQ(events[i].b, 12u + i);
    EXPECT_EQ(events[i].at, Time::FromMicroseconds(12 + i));
  }
}

TEST(TraceRecorderTest, PortTapFillsCountersEventsAndDepthSeries) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder recorder(config);
  const std::uint16_t site = recorder.RegisterSite("bottleneck0");
  ASSERT_EQ(recorder.site_count(), 1u);
  EXPECT_EQ(recorder.site_label(site), "bottleneck0");
  PacketTracer* tap = recorder.PortTap(site);
  ASSERT_NE(tap, nullptr);
  // The tap address is stable across further registrations.
  recorder.RegisterSite("bottleneck1");
  EXPECT_EQ(tap, recorder.PortTap(site));

  Packet pkt;
  pkt.size_bytes = 1500;
  pkt.seq = 7;
  pkt.flow = FlowKey{1, 2, 10, 80};
  const QueueSnapshot one{1, 1500};
  const QueueSnapshot empty{0, 0};

  tap->OnEnqueue(pkt, Time::FromMicroseconds(1), one);
  tap->OnMark(pkt, Time::FromMicroseconds(2));
  tap->OnDequeue(pkt, Time::FromMicroseconds(2), empty,
                 Time::FromMicroseconds(1));
  tap->OnTransmit(pkt, Time::FromMicroseconds(3));
  tap->OnDrop(pkt, Time::FromMicroseconds(4), DropReason::kOverflow);
  tap->OnPurge(pkt, Time::FromMicroseconds(5), empty);

  // The tap records events only: the site's port counts stay zero until
  // the port's own counters are handed in.
  EXPECT_EQ(recorder.site_counts(site).disc.enqueued, 0u);
  EXPECT_EQ(recorder.site_counts(site).dropped_total(), 0u);

  EXPECT_EQ(recorder.kind_count(TraceEventKind::kEnqueue), 1u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kDequeue), 1u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kTransmit), 1u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kMark), 1u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kDrop), 2u);  // drop + purge
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kEnqueue);
  EXPECT_EQ(events[0].a, 7u);  // seq
  EXPECT_EQ(events[0].b, 1u);  // depth after
  EXPECT_EQ(events[0].site, site);
  EXPECT_EQ(events[0].flow, pkt.flow);
  EXPECT_EQ(events[2].kind, TraceEventKind::kDequeue);
  EXPECT_EQ(events[2].b, 1000u);  // sojourn ns
  EXPECT_EQ(events[4].kind, TraceEventKind::kDrop);
  EXPECT_EQ(events[4].reason, DropReason::kOverflow);
  EXPECT_EQ(events[5].kind, TraceEventKind::kDrop);
  EXPECT_EQ(events[5].reason, DropReason::kPurged);
  for (const TraceEvent& event : events) EXPECT_EQ(event.site, site);

  // Depth sampled on enqueue, dequeue, and purge.
  const auto& depth = recorder.depth_series(site);
  ASSERT_EQ(depth.size(), 3u);
  EXPECT_EQ(depth[0].packets, 1u);
  EXPECT_EQ(depth[0].bytes, 1500u);
  EXPECT_EQ(depth[1].packets, 0u);
}

// Site ids are 16-bit and kNoTraceSite marks port-less events, so the
// recorder names at most 65,535 ports; one more must not wrap onto site 0.
TEST(TraceRecorderDeathTest, RegisteringPastSixteenBitSiteIdsExits) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder recorder(config);
  for (std::uint32_t i = 0; i < kNoTraceSite; ++i) {
    recorder.RegisterSite("port");
  }
  EXPECT_EQ(recorder.site_count(), 65535u);
  EXPECT_EXIT(recorder.RegisterSite("one-too-many"),
              ::testing::ExitedWithCode(2),
              "one-too-many.*65535 ports are already traced");
}

TEST(TraceRecorderTest, SeriesCapSuppressesPointsNotEvents) {
  TraceConfig config;
  config.enabled = true;
  config.max_series_points = 4;
  TraceRecorder recorder(config);
  const std::uint16_t site = recorder.RegisterSite("bn");
  PacketTracer* tap = recorder.PortTap(site);

  Packet pkt;
  pkt.size_bytes = 100;
  for (int i = 0; i < 10; ++i) {
    tap->OnEnqueue(pkt, Time::FromMicroseconds(i),
                   QueueSnapshot{static_cast<std::uint32_t>(i + 1), 0});
  }
  EXPECT_EQ(recorder.depth_series(site).size(), 4u);
  EXPECT_EQ(recorder.suppressed_points(), 6u);
  // Events are unaffected by the series cap.
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kEnqueue), 10u);
  EXPECT_EQ(recorder.Events().size(), 10u);

  // Flow series respect the same cap (per series, cwnd and rtt separately).
  const FlowKey flow{1, 2, 3, 4};
  for (int i = 0; i < 6; ++i) {
    recorder.OnCwnd(flow, Time::FromMicroseconds(i), 1000.0 * i, 500.0);
  }
  EXPECT_EQ(recorder.flows().at(flow).cwnd.size(), 4u);
  EXPECT_EQ(recorder.suppressed_points(), 8u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kCwnd), 6u);
}

TEST(TraceRecorderTest, DisabledQueueSeriesRecordsNoDepth) {
  TraceConfig config;
  config.enabled = true;
  config.queue_series = false;
  TraceRecorder recorder(config);
  const std::uint16_t site = recorder.RegisterSite("bn");
  Packet pkt;
  recorder.PortTap(site)->OnEnqueue(pkt, Time::Zero(), QueueSnapshot{1, 64});
  EXPECT_TRUE(recorder.depth_series(site).empty());
  EXPECT_EQ(recorder.suppressed_points(), 0u);
  // The event stream still sees the enqueue.
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kEnqueue), 1u);
}

TEST(TraceRecorderTest, TransportSeriesAreKeyedDeterministically) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder recorder(config);
  const FlowKey late{9, 1, 1, 1};   // larger src — must sort second
  const FlowKey early{1, 9, 1, 1};

  recorder.OnCwnd(late, Time::FromMicroseconds(1), 3000.0, 1e9);
  recorder.OnRttSample(late, Time::FromMicroseconds(2),
                       Time::FromMicroseconds(80));
  recorder.OnRetransmit(early, Time::FromMicroseconds(3), 1460);
  recorder.OnRto(early, Time::FromMicroseconds(4), 2);
  recorder.OnRto(early, Time::FromMicroseconds(5), 3);

  ASSERT_EQ(recorder.flows().size(), 2u);
  auto it = recorder.flows().begin();
  EXPECT_EQ(it->first, early);  // FlowKeyLess order, not insertion order
  EXPECT_EQ(it->second.retransmits, 1u);
  EXPECT_EQ(it->second.rtos, 2u);
  ++it;
  EXPECT_EQ(it->first, late);
  ASSERT_EQ(it->second.cwnd.size(), 1u);
  EXPECT_DOUBLE_EQ(it->second.cwnd[0].cwnd_bytes, 3000.0);
  ASSERT_EQ(it->second.rtt.size(), 1u);
  EXPECT_EQ(it->second.rtt[0].sample, Time::FromMicroseconds(80));

  EXPECT_EQ(recorder.kind_count(TraceEventKind::kRetransmit), 1u);
  EXPECT_EQ(recorder.kind_count(TraceEventKind::kRto), 2u);
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

void FillRecorder(TraceRecorder& recorder) {
  const std::uint16_t site = recorder.RegisterSite("bottleneck0");
  PacketTracer* tap = recorder.PortTap(site);
  Packet pkt;
  pkt.size_bytes = 1500;
  pkt.flow = FlowKey{3, 4, 1000, 80};
  for (int i = 0; i < 5; ++i) {
    pkt.seq = static_cast<std::uint64_t>(i) * 1460;
    tap->OnEnqueue(pkt, Time::FromMicroseconds(2 * i),
                   QueueSnapshot{1, 1500});
    tap->OnDequeue(pkt, Time::FromMicroseconds(2 * i + 1), QueueSnapshot{0, 0},
                   Time::FromMicroseconds(1));
  }
  tap->OnDrop(pkt, Time::FromMicroseconds(11), DropReason::kOverflow);
  recorder.OnCwnd(pkt.flow, Time::FromMicroseconds(12), 4380.0, 1e9);
  recorder.OnScenarioAction(Time::FromMicroseconds(13), 2, -1);
}

TEST(TraceExportTest, JsonIsByteIdenticalAcrossIdenticalRecorders) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder a(config);
  TraceRecorder b(config);
  FillRecorder(a);
  FillRecorder(b);
  const std::string dump_a = TraceToJson(a).Dump();
  EXPECT_EQ(dump_a, TraceToJson(b).Dump());
  EXPECT_EQ(TraceToCsv(a), TraceToCsv(b));

  // The document carries the documented sections and wire names.
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(dump_a, &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("schema_version")->AsInt(0), 1);
  const Json* totals = parsed.Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->Find("events")->AsInt(0), 13);
  const Json* sites = parsed.Find("sites");
  ASSERT_TRUE(sites != nullptr && sites->IsArray());
  ASSERT_EQ(sites->items().size(), 1u);
  EXPECT_EQ(sites->items()[0].Find("label")->AsString(), "bottleneck0");
  const Json* events = parsed.Find("events");
  ASSERT_TRUE(events != nullptr && events->IsArray());
  ASSERT_EQ(events->items().size(), 13u);
  EXPECT_EQ(events->items()[0].Find("kind")->AsString(), "enqueue");
  // Every kind appears in totals.kinds even when its count is zero.
  EXPECT_NE(dump_a.find("\"rtt_sample\""), std::string::npos);
  EXPECT_NE(dump_a.find("\"scenario\""), std::string::npos);
  EXPECT_NE(dump_a.find("\"overflow\""), std::string::npos);
}

TEST(TraceExportTest, SiteCountersRenderThePortsOwnCounts) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder recorder(config);
  const std::uint16_t site = recorder.RegisterSite("bottleneck0");
  PortCounts counts;
  counts.disc.enqueued = 40;
  counts.disc.dequeued = 31;
  counts.disc.dropped_overflow = 2;
  counts.disc.dropped_aqm = 3;
  counts.disc.purged = 5;
  counts.disc.ce_marked = 7;
  counts.port.tx_packets = 29;
  counts.port.dropped_link_down = 11;
  counts.port.dropped_fault = 17;
  counts.port.corrupted = 13;
  recorder.SetSiteCounts(site, counts);

  const Json doc = TraceToJson(recorder);
  const Json& c = *doc.Find("sites")->items()[0].Find("counters");
  EXPECT_EQ(c.Find("enqueued")->AsUInt(), 40u);
  EXPECT_EQ(c.Find("dequeued")->AsUInt(), 31u);
  EXPECT_EQ(c.Find("transmitted")->AsUInt(), 29u);
  EXPECT_EQ(c.Find("marks")->AsUInt(), 7u);
  EXPECT_EQ(c.Find("purged")->AsUInt(), 5u);
  EXPECT_EQ(c.Find("dropped_total")->AsUInt(), 2u + 3u + 11u + 5u + 17u + 13u);
  const Json& drops = *c.Find("drops");
  EXPECT_EQ(drops.Find("overflow")->AsUInt(), 2u);
  EXPECT_EQ(drops.Find("aqm")->AsUInt(), 3u);
  EXPECT_EQ(drops.Find("link-down")->AsUInt(), 11u);
  EXPECT_EQ(drops.Find("purged")->AsUInt(), 5u);
  EXPECT_EQ(drops.Find("fault-loss")->AsUInt(), 17u);
  EXPECT_EQ(drops.Find("corrupt")->AsUInt(), 13u);
}

TEST(TraceExportTest, CsvHasHeaderAndOneRowPerRetainedEvent) {
  TraceConfig config;
  config.enabled = true;
  TraceRecorder recorder(config);
  FillRecorder(recorder);
  const std::string csv = TraceToCsv(recorder);
  ASSERT_EQ(csv.rfind("at_ns,kind,site,reason,src,src_port,dst,dst_port,a,b\n",
                      0),
            0u);
  std::size_t lines = 0;
  for (char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + recorder.Events().size());
  EXPECT_NE(csv.find("overflow"), std::string::npos);
  EXPECT_NE(csv.find("scenario"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end through RunDumbbell
// ---------------------------------------------------------------------------

DumbbellExperimentConfig SmallTracedConfig() {
  DumbbellExperimentConfig config;
  config.flows = 30;
  config.seed = 2;
  config.trace.enabled = true;
  return config;
}

TEST(TraceSessionTest, DisabledTracingLeavesResultTraceNull) {
  DumbbellExperimentConfig config;
  config.flows = 10;
  config.seed = 3;
  const ExperimentResult r = RunDumbbell(config);
  EXPECT_EQ(r.trace, nullptr);
}

TEST(TraceSessionTest, DumbbellTraceMatchesBottleneckStats) {
  const ExperimentResult r = RunDumbbell(SmallTracedConfig());
  ASSERT_NE(r.trace, nullptr);
  const TraceRecorder& trace = *r.trace;
  ASSERT_EQ(trace.site_count(), 1u);
  EXPECT_EQ(trace.site_label(0), "bottleneck0");

  // The site carries the bottleneck's own counts, and the tap's event
  // stream (an independent tally of the same run) agrees with them.
  const PortCounts& c = trace.site_counts(0);
  EXPECT_EQ(c.disc.enqueued, r.bottleneck.enqueued);
  EXPECT_EQ(c.disc.dequeued, r.bottleneck.dequeued);
  EXPECT_EQ(c.disc.ce_marked, r.bottleneck.ce_marked);
  EXPECT_EQ(c.disc.dropped_overflow, r.bottleneck.dropped_overflow);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kEnqueue), c.disc.enqueued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDequeue), c.disc.dequeued);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kMark), c.disc.ce_marked);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kTransmit), c.port.tx_packets);
  EXPECT_EQ(trace.kind_count(TraceEventKind::kDrop), c.dropped_total());
  // Drained run: enqueued == dequeued + purged (+ 0 queued).
  EXPECT_EQ(c.disc.enqueued, c.disc.dequeued + c.disc.purged);
  EXPECT_GT(c.disc.enqueued, 0u);
  EXPECT_GT(c.port.tx_packets, 0u);

  // Transport tracing produced per-flow series for the workload's flows.
  EXPECT_GT(trace.flows().size(), 0u);
  EXPECT_GT(trace.kind_count(TraceEventKind::kCwnd), 0u);
  EXPECT_GT(trace.kind_count(TraceEventKind::kRttSample), 0u);
  EXPECT_GT(trace.total_events(), trace.kind_count(TraceEventKind::kCwnd));
}

}  // namespace
}  // namespace ecnsharp

// Unit tests for the sketch telemetry subsystem: count-min, windowed rate
// ring, RTT min-filter sketch, queue EWMA, spec parsing, the telemetry
// aggregate (taps, heavy hitters, exact mirror), the sketch-driven ECN#
// estimator, and the session/CLI integration seams (two-observer lists on
// ports and stacks, export, FCT parity with sketches disabled).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aqm/dctcp_red.h"
#include "core/ecn_sharp.h"
#include "harness/config_json.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/sketch_export.h"
#include "hostpath/rtt_probe.h"
#include "net/egress_port.h"
#include "net/host.h"
#include "net/link_fault.h"
#include "net/packet.h"
#include "net/packet_tracer.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "sketch/count_min.h"
#include "sketch/estimator.h"
#include "sketch/queue_ewma.h"
#include "sketch/rate_sketch.h"
#include "sketch/rtt_sketch.h"
#include "sketch/sketch_config.h"
#include "sketch/telemetry.h"
#include "stats/percentile.h"
#include "trace/trace_recorder.h"
#include "trace/transport_tracer.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {
namespace {

// --- Count-min ------------------------------------------------------------

TEST(CountMinTest, ExactWithoutCollisions) {
  CountMinSketch sketch(1024, 4, /*seed=*/7);
  sketch.Update(1, 100);
  sketch.Update(2, 250);
  sketch.Update(1, 50);
  EXPECT_EQ(sketch.Estimate(1), 150u);
  EXPECT_EQ(sketch.Estimate(2), 250u);
  EXPECT_EQ(sketch.Estimate(999), 0u);
  EXPECT_EQ(sketch.total_count(), 400u);
}

TEST(CountMinTest, EstimateNeverUndercounts) {
  // Tiny sketch, many keys: heavy collisions, but the one-sided guarantee
  // must hold for every key.
  CountMinSketch sketch(8, 2, /*seed=*/11);
  for (std::uint64_t key = 0; key < 100; ++key) sketch.Update(key, key + 1);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_GE(sketch.Estimate(key), key + 1) << "key " << key;
  }
}

TEST(CountMinTest, UpdateReturnsNewEstimate) {
  CountMinSketch sketch(256, 4, /*seed=*/3);
  EXPECT_EQ(sketch.Update(42, 10), 10u);
  EXPECT_EQ(sketch.Update(42, 5), 15u);
}

TEST(CountMinTest, ClearResets) {
  CountMinSketch sketch(64, 4, /*seed=*/3);
  sketch.Update(42, 10);
  sketch.Clear();
  EXPECT_EQ(sketch.Estimate(42), 0u);
  EXPECT_EQ(sketch.total_count(), 0u);
}

TEST(CountMinTest, DepthIsClamped) {
  CountMinSketch deep(64, 99, /*seed=*/1);
  EXPECT_EQ(deep.depth(), 16u);
  CountMinSketch shallow(64, 0, /*seed=*/1);
  EXPECT_EQ(shallow.depth(), 1u);
}

TEST(CountMinTest, WidthForBudgetFitsAndIsPositive) {
  const std::size_t width = CountMinSketch::WidthForBudget(4096, 4);
  EXPECT_GE(width, 1u);
  CountMinSketch sketch(width, 4, /*seed=*/1);
  EXPECT_LE(sketch.MemoryBytes(), 4096u);
  // Degenerate budget still yields a working sketch.
  EXPECT_GE(CountMinSketch::WidthForBudget(0, 4), 1u);
}

// --- Windowed rate sketch -------------------------------------------------

TEST(RateSketchTest, EpochIndexIsExactIntegerDivision) {
  WindowedRateSketch sketch(64, 2, 4, Time::Milliseconds(5), 1.0, /*seed=*/1);
  EXPECT_EQ(sketch.EpochIndexFor(Time::Zero()), 0u);
  EXPECT_EQ(sketch.EpochIndexFor(Time::Milliseconds(4)), 0u);
  EXPECT_EQ(sketch.EpochIndexFor(Time::Milliseconds(5)), 1u);
  EXPECT_EQ(sketch.EpochIndexFor(Time::Milliseconds(14)), 2u);
}

TEST(RateSketchTest, SteadyRateIsRecovered) {
  // 1500 bytes every 100 us = 120 Mbit/s, no decay so every epoch weighs
  // the same and the estimate should sit on the true rate.
  WindowedRateSketch sketch(256, 4, 8, Time::Milliseconds(5), 1.0,
                            /*seed=*/2);
  Time now = Time::Zero();
  for (int i = 0; i < 400; ++i) {
    now += Time::FromMicroseconds(100);
    sketch.Update(77, 1500, now);
  }
  const double rate = sketch.EstimateRateBps(77, now);
  EXPECT_NEAR(rate, 120e6, 0.05 * 120e6);
  EXPECT_EQ(sketch.EstimateRateBps(12345, now), 0.0);
}

TEST(RateSketchTest, OldEpochsAgeOut) {
  WindowedRateSketch sketch(256, 4, 4, Time::Milliseconds(5), 1.0,
                            /*seed=*/2);
  sketch.Update(9, 100'000, Time::Milliseconds(1));
  EXPECT_GT(sketch.EstimateRateBps(9, Time::Milliseconds(1)), 0.0);
  // Advance far past the window: the flow's bytes must be gone.
  sketch.Update(10, 1, Time::Milliseconds(200));
  EXPECT_EQ(sketch.EstimateRateBps(9, Time::Milliseconds(200)), 0.0);
}

TEST(RateSketchTest, DecayWeightsRecentEpochsHigher) {
  WindowedRateSketch sketch(256, 4, 8, Time::Milliseconds(5), 0.5,
                            /*seed=*/2);
  EXPECT_DOUBLE_EQ(sketch.AgeWeight(0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.AgeWeight(1), 0.5);
  EXPECT_DOUBLE_EQ(sketch.AgeWeight(2), 0.25);
  EXPECT_DOUBLE_EQ(sketch.AgeWeight(8), 0.0);  // outside the ring
}

TEST(RateSketchTest, WindowSecondsMatchElapsedTimeEarlyOn) {
  WindowedRateSketch sketch(256, 4, 8, Time::Milliseconds(5), 1.0,
                            /*seed=*/2);
  // Mid-first-epoch: only the in-progress epoch contributes, pro-rated.
  const double s0 = sketch.WindowWeightedSeconds(Time::Milliseconds(2));
  EXPECT_NEAR(s0, 0.002, 1e-9);
  // After three full epochs + half of the fourth.
  const double s3 = sketch.WindowWeightedSeconds(Time::FromMicroseconds(17'500));
  EXPECT_NEAR(s3, 0.0175, 1e-9);
}

// --- Queue EWMA -----------------------------------------------------------

TEST(QueueEwmaTest, SeedsOnFirstSampleThenSmooths) {
  QueueOccupancyEwma ewma(0.5);
  EXPECT_EQ(ewma.samples(), 0u);
  ewma.Observe(10, 15'000);
  EXPECT_DOUBLE_EQ(ewma.ewma_packets(), 10.0);
  ewma.Observe(20, 30'000);
  EXPECT_DOUBLE_EQ(ewma.ewma_packets(), 15.0);
  EXPECT_DOUBLE_EQ(ewma.ewma_bytes(), 22'500.0);
  EXPECT_EQ(ewma.samples(), 2u);
  EXPECT_EQ(ewma.peak_packets(), 20u);
  EXPECT_EQ(ewma.peak_bytes(), 30'000u);
}

TEST(QueueEwmaTest, AlphaIsClamped) {
  QueueOccupancyEwma ewma(42.0);  // clamped to 1.0: tracks instantaneous
  ewma.Observe(10, 100);
  ewma.Observe(2, 20);
  EXPECT_DOUBLE_EQ(ewma.ewma_packets(), 2.0);
}

// --- RTT sketch -----------------------------------------------------------

TEST(RttSketchTest, AdmitsOnlyImprovingSamples) {
  WindowedRttSketch sketch(256, 4, 8, Time::Milliseconds(5), /*seed=*/5);
  const Time now = Time::Milliseconds(1);
  EXPECT_TRUE(sketch.AddSample(1, Time::FromMicroseconds(300), now));
  // Larger than the flow's current minimum: rejected.
  EXPECT_FALSE(sketch.AddSample(1, Time::FromMicroseconds(400), now));
  // Equal: rejected (strict improvement required).
  EXPECT_FALSE(sketch.AddSample(1, Time::FromMicroseconds(300), now));
  // Lower: admitted.
  EXPECT_TRUE(sketch.AddSample(1, Time::FromMicroseconds(120), now));
  EXPECT_EQ(sketch.SampleCount(now), 2u);
}

TEST(RttSketchTest, QuantileLandsNearAdmittedMinima) {
  WindowedRttSketch sketch(512, 4, 8, Time::Milliseconds(5), /*seed=*/5);
  const Time now = Time::Milliseconds(1);
  // 100 flows, base RTTs spread 100..199 us; after each flow's base is in,
  // offer a queue-inflated sample — it exceeds the flow's minimum, so the
  // admission gate must keep it out of the histogram.
  for (std::uint64_t f = 0; f < 100; ++f) {
    const double base_us = 100.0 + static_cast<double>(f);
    sketch.AddSample(f, Time::FromMicroseconds(base_us), now);
    EXPECT_FALSE(sketch.AddSample(f, Time::FromMicroseconds(base_us * 4), now));
  }
  // Geometric buckets have ~8% resolution: allow that plus the spread.
  EXPECT_NEAR(sketch.QuantileUs(50.0, now), 150.0, 150.0 * 0.30);
  const double p99 = sketch.QuantileUs(99.0, now);
  EXPECT_GE(p99, sketch.QuantileUs(50.0, now));
  // Well below the inflated 4x samples: they were never admitted.
  EXPECT_LT(p99, 250.0);
  EXPECT_GT(sketch.MeanUs(now), 0.0);
}

TEST(RttSketchTest, WindowTracksRttIncreases) {
  WindowedRttSketch sketch(256, 4, 4, Time::Milliseconds(5), /*seed=*/5);
  // Old low floor in epoch 0.
  sketch.AddSample(1, Time::FromMicroseconds(100), Time::Milliseconds(1));
  // Path change: only higher samples from epoch 10 on. Within the window
  // of epochs 10.. the old minimum is gone, so the new floor is admitted.
  EXPECT_TRUE(sketch.AddSample(1, Time::FromMicroseconds(500),
                               Time::Milliseconds(51)));
  const double p50 = sketch.QuantileUs(50.0, Time::Milliseconds(51));
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.10);
  EXPECT_EQ(sketch.SampleCount(Time::Milliseconds(51)), 1u);
}

TEST(RttSketchTest, EmptyWindowYieldsZero) {
  WindowedRttSketch sketch(256, 4, 8, Time::Milliseconds(5), /*seed=*/5);
  EXPECT_EQ(sketch.QuantileUs(90.0, Time::Zero()), 0.0);
  EXPECT_EQ(sketch.MeanUs(Time::Zero()), 0.0);
  EXPECT_EQ(sketch.SampleCount(Time::Zero()), 0u);
}

TEST(RttSketchTest, BucketRoundTrip) {
  for (const double us : {1.5, 10.0, 100.0, 1000.0, 250'000.0}) {
    const std::size_t bucket = WindowedRttSketch::BucketFor(us);
    const double mid = WindowedRttSketch::BucketMidUs(bucket);
    // The midpoint of the bucket containing `us` is within one gamma step.
    EXPECT_GT(mid, us / WindowedRttSketch::kGamma);
    EXPECT_LT(mid, us * WindowedRttSketch::kGamma);
  }
}

TEST(RttSketchTest, WidthForBudgetFits) {
  const std::size_t width = WindowedRttSketch::WidthForBudget(16'384, 4, 8);
  EXPECT_GE(width, 1u);
  WindowedRttSketch sketch(width, 4, 8, Time::Milliseconds(5), /*seed=*/5);
  EXPECT_LE(sketch.MemoryBytes(), 16'384u + 8 * 256 * sizeof(std::uint32_t));
}

// --- Spec parsing ---------------------------------------------------------

TEST(SketchSpecTest, OnEnablesDefaults) {
  SketchConfig config;
  std::string error;
  ASSERT_TRUE(SketchConfigFromSpec("on", &config, &error)) << error;
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.memory_kb, 64u);
  EXPECT_EQ(config.depth, 4u);
}

TEST(SketchSpecTest, FullOverride) {
  SketchConfig config;
  std::string error;
  ASSERT_TRUE(SketchConfigFromSpec(
      "mem:128,depth:6,epoch:2000,window:16,decay:50,hh:32,exact:on", &config,
      &error))
      << error;
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.memory_kb, 128u);
  EXPECT_EQ(config.depth, 6u);
  EXPECT_EQ(config.epoch, Time::FromMicroseconds(2000));
  EXPECT_EQ(config.window_epochs, 16u);
  EXPECT_DOUBLE_EQ(config.decay, 0.5);
  EXPECT_EQ(config.heavy_hitters, 32u);
  EXPECT_TRUE(config.track_exact);
}

// hh:0 switches the heavy-hitter table off, as a record's
// "heavy_hitters": 0 does.
TEST(SketchSpecTest, AcceptsZeroHeavyHitters) {
  SketchConfig config;
  std::string error;
  ASSERT_TRUE(SketchConfigFromSpec("hh:0", &config, &error)) << error;
  EXPECT_EQ(config.heavy_hitters, 0u);
}

TEST(SketchSpecTest, RejectsDuplicateKeys) {
  SketchConfig config;
  std::string error;
  EXPECT_FALSE(SketchConfigFromSpec("mem:64,mem:128", &config, &error));
  EXPECT_NE(error.find("duplicate key"), std::string::npos) << error;
  // Config untouched on failure.
  EXPECT_FALSE(config.enabled);
}

TEST(SketchSpecTest, RejectsUnknownKeysAndBadRanges) {
  SketchConfig config;
  std::string error;
  EXPECT_FALSE(SketchConfigFromSpec("bogus:1", &config, &error));
  EXPECT_FALSE(SketchConfigFromSpec("mem:0", &config, &error));
  EXPECT_FALSE(SketchConfigFromSpec("depth:17", &config, &error));
  EXPECT_FALSE(SketchConfigFromSpec("hh:1025", &config, &error));
  EXPECT_FALSE(SketchConfigFromSpec("decay:0", &config, &error));
  EXPECT_FALSE(SketchConfigFromSpec("exact:maybe", &config, &error));
  // Past 2^64 KiB: refused, not wrapped.
  EXPECT_FALSE(
      SketchConfigFromSpec("mem:18446744073709551616", &config, &error));
  EXPECT_FALSE(config.enabled);
}

// --- Telemetry aggregate --------------------------------------------------

Packet MakePacket(std::uint32_t src, std::uint32_t size) {
  Packet pkt;
  pkt.flow = FlowKey{src, 200, 4000, 80};
  pkt.size_bytes = size;
  return pkt;
}

TEST(TelemetryTest, SiteCountersAndEwmaThroughTap) {
  SketchConfig config;
  config.enabled = true;
  SketchTelemetry telemetry(config);
  const std::uint16_t site = telemetry.RegisterSite("port0");
  PacketTracer* tap = telemetry.PortTap(site);

  const Packet pkt = MakePacket(1, 1500);
  tap->OnEnqueue(pkt, Time::FromMicroseconds(10), QueueSnapshot{3, 4500});
  tap->OnDequeue(pkt, Time::FromMicroseconds(20), QueueSnapshot{2, 3000},
                 Time::FromMicroseconds(10));
  tap->OnTransmit(pkt, Time::FromMicroseconds(21));
  tap->OnMark(pkt, Time::FromMicroseconds(21));
  tap->OnDrop(pkt, Time::FromMicroseconds(22), DropReason::kOverflow);

  // The tap keeps the sketch's own state only; packet, mark and drop counts
  // are the port's, zero until handed in and then exactly the copy.
  EXPECT_EQ(telemetry.site_enqueued_bytes(site), 1500u);
  EXPECT_EQ(telemetry.site_counts(site).disc.enqueued, 0u);
  EXPECT_EQ(telemetry.site_counts(site).dropped_total(), 0u);
  PortCounts counts;
  counts.disc.enqueued = 3;
  counts.disc.ce_marked = 2;
  counts.port.corrupted = 1;
  telemetry.SetSiteCounts(site, counts);
  EXPECT_EQ(telemetry.site_counts(site).disc.enqueued, 3u);
  EXPECT_EQ(telemetry.site_counts(site).disc.ce_marked, 2u);
  EXPECT_EQ(telemetry.site_counts(site).dropped_total(), 1u);
  EXPECT_EQ(telemetry.queue_ewma(site).samples(), 2u);
  EXPECT_EQ(telemetry.queue_ewma(site).peak_packets(), 3u);
  EXPECT_EQ(telemetry.packets_observed(), 1u);
  EXPECT_EQ(telemetry.last_update(), Time::FromMicroseconds(10));
  EXPECT_EQ(telemetry.site_label(site), "port0");
}

TEST(TelemetryTest, HeavyHittersFindTheHeavyFlows) {
  SketchConfig config;
  config.enabled = true;
  config.heavy_hitters = 4;
  SketchTelemetry telemetry(config);
  PacketTracer* tap = telemetry.PortTap(telemetry.RegisterSite("p"));

  Time now = Time::Zero();
  // Flows 0..3 send 50 packets each, flows 4..40 one packet each.
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      now += Time::FromMicroseconds(10);
      tap->OnEnqueue(MakePacket(f, 1500), now, QueueSnapshot{1, 1500});
    }
  }
  for (std::uint32_t f = 4; f < 41; ++f) {
    now += Time::FromMicroseconds(10);
    tap->OnEnqueue(MakePacket(f, 100), now, QueueSnapshot{1, 100});
  }

  const auto hitters = telemetry.HeavyHitters();
  ASSERT_EQ(hitters.size(), 4u);
  for (const auto& hh : hitters) {
    EXPECT_LT(hh.flow.src, 4u);
    EXPECT_GE(hh.estimated_bytes, 50u * 1500u);
  }
}

TEST(TelemetryTest, ExactMirrorAgreesWithSketchOnLightLoad) {
  SketchConfig config;
  config.enabled = true;
  config.track_exact = true;
  SketchTelemetry telemetry(config);
  PacketTracer* tap = telemetry.PortTap(telemetry.RegisterSite("p"));

  Time now = Time::Zero();
  for (int i = 0; i < 200; ++i) {
    now += Time::FromMicroseconds(50);
    tap->OnEnqueue(MakePacket(7, 1500), now, QueueSnapshot{1, 1500});
  }
  const FlowKey flow{7, 200, 4000, 80};
  EXPECT_EQ(telemetry.ExactFlowBytes(flow), 200u * 1500u);
  // Conservative update: estimate >= exact; with one flow, equal.
  EXPECT_EQ(telemetry.EstimateFlowBytes(flow), 200u * 1500u);
  // Same windowing on both sides: rates agree.
  const double exact = telemetry.ExactRateBps(flow, now);
  const double est = telemetry.EstimateRateBps(flow, now);
  EXPECT_GT(exact, 0.0);
  EXPECT_NEAR(est, exact, exact * 1e-9);
  EXPECT_EQ(telemetry.ExactFlowCount(), 1u);
  const auto top = telemetry.ExactTopFlows(5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].estimated_bytes, 200u * 1500u);
}

TEST(TelemetryTest, MemoryBudgetIsRespected) {
  for (const std::size_t kb : {8u, 64u, 256u}) {
    SketchConfig config;
    config.enabled = true;
    config.memory_kb = kb;
    SketchTelemetry telemetry(config);
    // The flow-keyed state must stay within ~2x of the budget (the RTT
    // ring's fixed histograms dominate tiny budgets, so allow headroom at
    // 8 KB), and must scale with it.
    EXPECT_LE(telemetry.FlowSketchMemoryBytes(), kb * 1024 + 16 * 1024);
  }
  SketchConfig small, big;
  small.enabled = big.enabled = true;
  small.memory_kb = 16;
  big.memory_kb = 128;
  EXPECT_LT(SketchTelemetry(small).FlowSketchMemoryBytes(),
            SketchTelemetry(big).FlowSketchMemoryBytes());
}

TEST(TelemetryTest, RttSamplesFlowThroughTransportTracerSeam) {
  SketchConfig config;
  config.enabled = true;
  SketchTelemetry telemetry(config);
  TransportTracer& tracer = telemetry;
  const FlowKey flow{1, 2, 3, 4};
  tracer.OnRttSample(flow, Time::FromMicroseconds(10),
                     Time::FromMicroseconds(300));
  tracer.OnRttSample(flow, Time::FromMicroseconds(20),
                     Time::FromMicroseconds(450));
  EXPECT_EQ(telemetry.rtt_samples_offered(), 2u);
  EXPECT_EQ(telemetry.rtt_samples_admitted(), 1u);  // 450 > current min
  EXPECT_EQ(telemetry.last_update(), Time::FromMicroseconds(20));
}

// --- Estimator ------------------------------------------------------------

TEST(EstimatorTest, InvalidWithoutSamplesValidWithThem) {
  SketchConfig config;
  config.enabled = true;
  SketchTelemetry telemetry(config);
  EXPECT_FALSE(EstimateFromSketch(telemetry, Time::Zero()).valid);

  TransportTracer& tracer = telemetry;
  for (std::uint64_t f = 0; f < 50; ++f) {
    tracer.OnRttSample(FlowKey{static_cast<std::uint32_t>(f), 9, 1, 2},
                       Time::FromMicroseconds(100),
                       Time::FromMicroseconds(200.0 + static_cast<double>(f)));
  }
  const SketchRttEstimate estimate =
      EstimateFromSketch(telemetry, Time::FromMicroseconds(100));
  EXPECT_TRUE(estimate.valid);
  // A first sample can be rejected when the flow collides with lower
  // minima on every row, so admitted <= offered; the estimate reports the
  // telemetry's own admitted count.
  EXPECT_EQ(estimate.samples, telemetry.rtt_samples_admitted());
  EXPECT_GT(estimate.samples, 40u);
  EXPECT_EQ(estimate.offered, 50u);
  EXPECT_GT(estimate.p90_us, estimate.p50_us * 0.9);
  EXPECT_GE(estimate.p99_us, estimate.p90_us);
  EXPECT_GT(estimate.mean_us, 0.0);

  const EcnSharpConfig derived = SketchRuleOfThumb(estimate, 1.0);
  const EcnSharpConfig expected =
      RuleOfThumbConfig(Time::FromMicroseconds(estimate.p90_us),
                        Time::FromMicroseconds(estimate.mean_us), 1.0);
  EXPECT_EQ(derived.ins_target, expected.ins_target);
  EXPECT_EQ(derived.pst_target, expected.pst_target);
  EXPECT_EQ(derived.pst_interval, expected.pst_interval);
}

// --- NearestRank / RttStats metadata --------------------------------------

TEST(NearestRankTest, MatchesPercentileSortedSelection) {
  // PercentileSorted picks sorted[idx]; NearestRank must return idx + 1.
  const std::vector<double> sorted{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  for (const double p : {1.0, 50.0, 90.0, 99.0, 100.0}) {
    const std::size_t rank = NearestRank(sorted.size(), p);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, sorted.size());
    EXPECT_EQ(sorted[rank - 1], PercentileSorted(sorted, p)) << "p=" << p;
  }
  EXPECT_EQ(NearestRank(0, 90.0), 0u);
  EXPECT_EQ(NearestRank(1, 99.0), 1u);
}

TEST(RttStatsTest, CarriesPercentileRankMetadata) {
  std::vector<double> rtts;
  for (int i = 1; i <= 200; ++i) rtts.push_back(static_cast<double>(i));
  const RttStats stats = ComputeRttStats(rtts);
  EXPECT_EQ(stats.samples, 200u);
  EXPECT_EQ(stats.p90_rank, NearestRank(200, 90.0));
  EXPECT_EQ(stats.p99_rank, NearestRank(200, 99.0));
  // The rank names the order statistic the percentile value came from.
  EXPECT_DOUBLE_EQ(stats.p90_us, static_cast<double>(stats.p90_rank));

  const RttStats empty = ComputeRttStats({});
  EXPECT_EQ(empty.p90_rank, 0u);
  EXPECT_EQ(empty.p99_rank, 0u);
}

// --- Observer lists -------------------------------------------------------

// Logs every PacketTracer hook as one line, so two observers' views of a
// port can be compared event for event.
class RecordingTracer : public PacketTracer {
 public:
  void OnTransmit(const Packet& pkt, Time at) override {
    Log("tx", pkt, at);
  }
  void OnDrop(const Packet& pkt, Time at, DropReason reason) override {
    Log(std::string("drop:") + DropReasonName(reason), pkt, at);
  }
  void OnMark(const Packet& pkt, Time at) override { Log("mark", pkt, at); }
  void OnEnqueue(const Packet& pkt, Time at,
                 const QueueSnapshot& after) override {
    Log("enq/" + std::to_string(after.packets), pkt, at);
  }
  void OnDequeue(const Packet& pkt, Time at, const QueueSnapshot& after,
                 Time sojourn) override {
    Log("deq/" + std::to_string(after.packets) + "/" +
            std::to_string(sojourn.ns()),
        pkt, at);
  }
  void OnPurge(const Packet& pkt, Time at,
               const QueueSnapshot& after) override {
    Log("purge/" + std::to_string(after.packets), pkt, at);
  }

  std::vector<std::string> events;

 private:
  void Log(const std::string& what, const Packet& pkt, Time at) {
    events.push_back(std::to_string(at.ns()) + " " + what + " seq=" +
                     std::to_string(pkt.seq));
  }
};

// True if some logged event's tag starts with `what`.
bool HasEvent(const std::vector<std::string>& events,
              const std::string& what) {
  for (const std::string& e : events) {
    if (e.find(" " + what) != std::string::npos) return true;
  }
  return false;
}

struct DiscardSink : PacketSink {
  void HandlePacket(std::unique_ptr<Packet>) override {}
};

TEST(ObserverListTest, EgressPortNotifiesBothTracersAlike) {
  Simulator sim;
  // A 4-packet buffer marking above 2 packets: a 12-packet arrival burst
  // overflows, marks and queues.
  EgressPort port(sim, DataRate::GigabitsPerSecond(10),
                  Time::FromMicroseconds(1),
                  std::make_unique<FifoQueueDisc>(
                      6000, std::make_unique<DctcpRedAqm>(3000)));
  DiscardSink sink;
  port.ConnectTo(sink);
  LinkFaultInjector fault(11, /*drop_prob=*/0.3, /*corrupt_prob=*/0.3);
  port.SetFaultInjector(&fault);
  RecordingTracer first;
  RecordingTracer second;
  port.AddTracer(&first);
  port.AddTracer(&second);

  std::uint64_t seq = 0;
  const auto burst = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      auto pkt = std::make_unique<Packet>();
      pkt->size_bytes = 1500;
      pkt->ecn = EcnCodepoint::kEct0;
      pkt->seq = seq++;
      port.Enqueue(std::move(pkt));
    }
  };
  for (int round = 0; round < 6; ++round) {
    sim.ScheduleAt(Time::FromMicroseconds(10 * round), [&] { burst(12); });
  }
  // A purging flap while a backlog stands, then arrivals on the dead link.
  sim.ScheduleAt(Time::FromMicroseconds(30), [&] {
    burst(4);
    port.LinkDown(/*drop_queued=*/true);
    burst(3);
  });
  sim.ScheduleAt(Time::FromMicroseconds(35), [&] { port.LinkUp(); });
  sim.Run();

  EXPECT_EQ(first.events, second.events);
  for (const char* what :
       {"enq/", "deq/", "tx", "mark", "purge/", "drop:overflow",
        "drop:link-down", "drop:fault-loss", "drop:corrupt"}) {
    EXPECT_TRUE(HasEvent(first.events, what)) << what;
  }
}

// Logs every TransportTracer hook as one line.
class RecordingTransportTracer : public TransportTracer {
 public:
  void OnCwnd(const FlowKey&, Time at, double cwnd_bytes,
              double ssthresh_bytes) override {
    events.push_back(std::to_string(at.ns()) + " cwnd " +
                     std::to_string(cwnd_bytes) + "/" +
                     std::to_string(ssthresh_bytes));
  }
  void OnRttSample(const FlowKey&, Time at, Time sample) override {
    events.push_back(std::to_string(at.ns()) + " rtt " +
                     std::to_string(sample.ns()));
  }
  void OnRetransmit(const FlowKey&, Time at, std::uint64_t seq) override {
    events.push_back(std::to_string(at.ns()) + " retransmit " +
                     std::to_string(seq));
  }
  void OnRto(const FlowKey&, Time at, std::uint32_t consecutive) override {
    events.push_back(std::to_string(at.ns()) + " rto " +
                     std::to_string(consecutive));
  }

  std::vector<std::string> events;
};

TEST(ObserverListTest, TcpStackNotifiesBothTransportTracersAlike) {
  Simulator sim;
  Host a(sim, 0);
  Host b(sim, 1);
  const auto link = [&sim](Host& from, Host& to) -> EgressPort& {
    auto nic = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(10), Time::Microseconds(5),
        std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
    nic->ConnectTo(to);
    return from.AttachNic(std::move(nic));
  };
  // Lossy a->b wire: the flow retransmits, so every hook fires.
  LinkFaultInjector fault(5, /*drop_prob=*/0.05);
  link(a, b).SetFaultInjector(&fault);
  link(b, a);
  TcpConfig config;
  TcpStack stack_a(a, config);
  TcpStack stack_b(b, config);
  RecordingTransportTracer first;
  RecordingTransportTracer second;
  stack_a.AddTransportTracer(&first);
  stack_a.AddTransportTracer(&second);

  bool done = false;
  stack_a.StartFlow(1, 400'000, [&done](const FlowRecord&) { done = true; });
  sim.RunUntil(Time::Seconds(2));

  ASSERT_TRUE(done);
  EXPECT_EQ(first.events, second.events);
  for (const char* what : {"cwnd", "rtt", "retransmit"}) {
    EXPECT_TRUE(HasEvent(first.events, what)) << what;
  }
}

TEST(ObserverListDeathTest, ThirdObserverExits) {
  RecordingTracer a;
  RecordingTracer b;
  RecordingTracer c;
  PacketTracerList list;
  list.Add(&a);
  list.Add(nullptr);  // ignored
  list.Add(&b);
  EXPECT_EXIT(list.Add(&c), ::testing::ExitedWithCode(2),
              "at most two observers");
}

// Sketch site ids share the trace recorder's 16-bit space: one more than
// 65,535 ports must exit rather than wrap onto site 0.
TEST(TelemetryDeathTest, RegisteringPastSixteenBitSiteIdsExits) {
  SketchConfig config;
  config.enabled = true;
  SketchTelemetry telemetry(config);
  for (std::uint32_t i = 0; i < kNoTraceSite; ++i) {
    telemetry.RegisterSite("port");
  }
  EXPECT_EQ(telemetry.site_count(), 65535u);
  EXPECT_EXIT(telemetry.RegisterSite("one-too-many"),
              ::testing::ExitedWithCode(2),
              "one-too-many.*65535 ports are already sketched");
}

// --- Experiment integration ----------------------------------------------

TEST(SketchIntegrationTest, DisabledByDefaultAndResultCarriesNoTelemetry) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.load = 0.4;
  config.seed = 5;
  const ExperimentResult result = RunDumbbell(config);
  EXPECT_EQ(result.sketch, nullptr);
}

TEST(SketchIntegrationTest, EnablingSketchesDoesNotPerturbTheRun) {
  DumbbellExperimentConfig config;
  config.flows = 60;
  config.load = 0.5;
  config.seed = 7;
  const ExperimentResult plain = RunDumbbell(config);

  config.sketch.enabled = true;
  const ExperimentResult sketched = RunDumbbell(config);

  // Telemetry is passive: byte-identical simulation outcome.
  EXPECT_DOUBLE_EQ(plain.overall.avg_us, sketched.overall.avg_us);
  EXPECT_DOUBLE_EQ(plain.large_flows.avg_us, sketched.large_flows.avg_us);
  EXPECT_EQ(plain.flows_completed, sketched.flows_completed);
  EXPECT_EQ(plain.bottleneck.ce_marked, sketched.bottleneck.ce_marked);

  ASSERT_NE(sketched.sketch, nullptr);
  EXPECT_GT(sketched.sketch->packets_observed(), 0u);
  EXPECT_GT(sketched.sketch->rtt_samples_offered(), 0u);
  EXPECT_GT(sketched.sketch->site_count(), 0u);
}

TEST(SketchIntegrationTest, SketchCoexistsWithFlightRecorder) {
  DumbbellExperimentConfig config;
  config.flows = 40;
  config.load = 0.5;
  config.seed = 7;
  config.sketch.enabled = true;
  config.trace.enabled = true;
  const ExperimentResult result = RunDumbbell(config);
  ASSERT_NE(result.sketch, nullptr);
  ASSERT_NE(result.trace, nullptr);
  // Both observers on each port's list saw the same enqueues.
  EXPECT_GT(result.sketch->packets_observed(), 0u);
  EXPECT_EQ(result.sketch->packets_observed(),
            result.trace->kind_count(TraceEventKind::kEnqueue));
  EXPECT_EQ(result.sketch->site_counts(0).disc.enqueued,
            result.trace->site_counts(0).disc.enqueued);
}

TEST(SketchIntegrationTest, SketchEstimatorRunCompletes) {
  LeafSpineExperimentConfig config;
  config.flows = 40;
  config.load = 0.5;
  config.seed = 3;
  config.sketch.enabled = true;
  config.estimator = EcnEstimator::kSketch;
  config.scheme = Scheme::kEcnSharp;
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(2);
  config.scenario.actions.push_back(reest);
  const ExperimentResult result = RunLeafSpine(config);
  EXPECT_EQ(result.flows_completed, 40u);
  ASSERT_NE(result.sketch, nullptr);
  EXPECT_GT(result.sketch->packets_observed(), 0u);
}

TEST(SketchExportTest, JsonIsDeterministicAndCarriesSchema) {
  SketchConfig config;
  config.enabled = true;
  SketchTelemetry telemetry(config);
  PacketTracer* tap = telemetry.PortTap(telemetry.RegisterSite("p0"));
  Time now = Time::Zero();
  for (int i = 0; i < 20; ++i) {
    now += Time::FromMicroseconds(100);
    tap->OnEnqueue(MakePacket(static_cast<std::uint32_t>(i % 3), 1500), now,
                   QueueSnapshot{1, 1500});
  }
  static_cast<TransportTracer&>(telemetry).OnRttSample(
      FlowKey{1, 200, 4000, 80}, now, Time::FromMicroseconds(250));

  const Json doc = SketchToJson(telemetry, now);
  const std::string dump = doc.Dump();
  EXPECT_EQ(dump, SketchToJson(telemetry, now).Dump());
  EXPECT_NE(doc.Find("config"), nullptr);
  EXPECT_NE(doc.Find("totals"), nullptr);
  EXPECT_NE(doc.Find("sites"), nullptr);
  EXPECT_NE(doc.Find("rtt_estimate"), nullptr);
  EXPECT_NE(doc.Find("heavy_hitters"), nullptr);
  const Json* totals = doc.Find("totals");
  EXPECT_EQ(totals->Find("packets_observed")->AsUInt(), 20u);
}

}  // namespace
}  // namespace ecnsharp

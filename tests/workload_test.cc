// Workload CDFs, sampling statistics, and Poisson traffic generation.
#include <gtest/gtest.h>

#include <memory>

#include "sim/random.h"
#include "stats/fct_collector.h"
#include "stats/percentile.h"
#include "sched/fifo_queue_disc.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"
#include "workload/empirical_cdf.h"
#include "workload/traffic_generator.h"

namespace ecnsharp {
namespace {

TEST(EmpiricalCdfTest, QuantileInterpolatesLinearly) {
  EmpiricalCdf cdf({{100.0, 0.0}, {200.0, 0.5}, {1000.0, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.25), 150.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.75), 600.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 1000.0);
}

TEST(EmpiricalCdfTest, AnalyticMeanMatchesSampling) {
  const EmpiricalCdf& cdf = WebSearchWorkload();
  Rng rng(1);
  double sum = 0.0;
  constexpr int kN = 400000;
  for (int i = 0; i < kN; ++i) sum += cdf.Sample(rng);
  const double sampled_mean = sum / kN;
  EXPECT_NEAR(sampled_mean / cdf.Mean(), 1.0, 0.02);
}

TEST(EmpiricalCdfTest, WebSearchShape) {
  const EmpiricalCdf& cdf = WebSearchWorkload();
  // Heavy-tailed: mean several hundred KB, median well under 100 KB
  // (~30% of flows are 1-packet queries, ~5% exceed 1 MB).
  EXPECT_GT(cdf.Mean(), 0.5e6);
  EXPECT_LT(cdf.Mean(), 1.0e6);
  EXPECT_LT(cdf.Quantile(0.5), 100e3);
  EXPECT_GT(cdf.Quantile(0.99), 2e6);
}

TEST(EmpiricalCdfTest, DataMiningShape) {
  const EmpiricalCdf& cdf = DataMiningWorkload();
  // Even heavier tail: ~80% of flows under 10 KB, mean several MB.
  EXPECT_LT(cdf.Quantile(0.8), 11e3);
  EXPECT_GT(cdf.Mean(), 5e6);
  EXPECT_GT(cdf.Quantile(0.999), 1e8);
}

TEST(EmpiricalCdfTest, SamplesStayWithinSupport) {
  const EmpiricalCdf& cdf = DataMiningWorkload();
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double s = cdf.Sample(rng);
    EXPECT_GE(s, cdf.points().front().value);
    EXPECT_LE(s, cdf.points().back().value);
  }
}

TEST(RttVariationTest, SamplesWithinRange) {
  Rng rng(3);
  const Time max_extra = Time::FromMicroseconds(160);
  for (int i = 0; i < 5000; ++i) {
    const Time extra = SampleRttExtra(rng, max_extra);
    EXPECT_GE(extra, Time::Zero());
    EXPECT_LE(extra, max_extra);
  }
}

TEST(RttVariationTest, MatchesLeafSpineCalibration) {
  // §5.3: base RTTs in [80, 240] us with mean ~137 us and p90 ~220 us.
  Rng rng(4);
  const Time base = Time::FromMicroseconds(80);
  const Time max_extra = Time::FromMicroseconds(160);
  std::vector<double> rtts;
  for (int i = 0; i < 50000; ++i) {
    rtts.push_back((base + SampleRttExtra(rng, max_extra)).ToMicroseconds());
  }
  EXPECT_NEAR(Mean(rtts), 137.0, 8.0);
  EXPECT_NEAR(Percentile(rtts, 90.0), 220.0, 10.0);
}

TEST(RttVariationTest, QuantilesAreDeterministicAndSorted) {
  const auto a = RttExtraQuantiles(7, Time::FromMicroseconds(140));
  const auto b = RttExtraQuantiles(7, Time::FromMicroseconds(140));
  ASSERT_EQ(a.size(), 7u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mixture shape: smallest extra near 0, largest near the cap.
  EXPECT_LT(a.front(), Time::FromMicroseconds(30));
  EXPECT_GT(a.back(), Time::FromMicroseconds(110));
}

TEST(TrafficGeneratorTest, ArrivalRateMatchesLoadFormula) {
  Simulator sim;
  const EmpiricalCdf& cdf = WebSearchWorkload();
  TrafficConfig config;
  config.load = 0.5;
  config.reference_capacity = DataRate::GigabitsPerSecond(10);
  TrafficGenerator gen(
      sim, cdf, config, [](Rng&) { return std::make_pair(nullptr, 0u); },
      nullptr, Rng(1));
  // rate = load * C / (mean_size * 8).
  EXPECT_NEAR(gen.ArrivalRate(), 0.5 * 10e9 / (cdf.Mean() * 8.0), 1.0);
}

TEST(TrafficGeneratorTest, GeneratesOfferedLoadThroughDumbbell) {
  Simulator sim;
  DumbbellConfig topo_config;
  topo_config.senders = 7;
  Dumbbell topo(sim, topo_config, [](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(1ull << 24, nullptr);
  });

  FctCollector collector;
  std::uint64_t total_bytes = 0;
  TrafficConfig config;
  config.load = 0.4;
  config.flow_count = 300;
  const std::uint32_t receiver = topo.receiver_address();
  TrafficGenerator gen(
      sim, WebSearchWorkload(), config,
      [&topo, receiver](Rng& r) {
        return std::make_pair(&topo.sender_stack(r.UniformInt(7)), receiver);
      },
      [&collector, &total_bytes](const FlowRecord& record) {
        collector.Record(record);
        total_bytes += record.size_bytes;
      },
      Rng(11));
  gen.Start();
  while (!gen.AllDone() && sim.Now() < Time::Seconds(60)) {
    sim.RunFor(Time::Milliseconds(10));
  }
  ASSERT_TRUE(gen.AllDone());
  EXPECT_EQ(collector.count(), 300u);
  // Realized utilization over the generation horizon should be in the
  // ballpark of the offered load (wide tolerance: 300 heavy-tailed flows).
  const double duration_s =
      static_cast<double>(config.flow_count) / gen.ArrivalRate();
  const double utilization = static_cast<double>(total_bytes) * 8.0 /
                             (duration_s * 10e9);
  EXPECT_GT(utilization, 0.15);
  EXPECT_LT(utilization, 1.0);
}

TEST(FctCollectorTest, BandsAndPercentiles) {
  FctCollector collector;
  const auto record = [&collector](std::uint64_t size, double fct_us,
                                   std::uint32_t timeouts = 0) {
    FlowRecord r;
    r.size_bytes = size;
    r.start_time = Time::Zero();
    r.completion_time = Time::FromMicroseconds(fct_us);
    r.timeouts = timeouts;
    collector.Record(r);
  };
  for (int i = 1; i <= 100; ++i) record(50'000, i * 10.0);  // short flows
  record(20'000'000, 5000.0, 2);                            // one large flow

  const FctSummary shorts = collector.ShortFlows();
  EXPECT_EQ(shorts.count, 100u);
  EXPECT_NEAR(shorts.avg_us, 505.0, 1.0);
  EXPECT_DOUBLE_EQ(shorts.p99_us, 990.0);
  EXPECT_DOUBLE_EQ(shorts.max_us, 1000.0);

  const FctSummary large = collector.LargeFlows();
  EXPECT_EQ(large.count, 1u);
  EXPECT_DOUBLE_EQ(large.avg_us, 5000.0);

  EXPECT_EQ(collector.Overall().count, 101u);
  EXPECT_EQ(collector.total_timeouts(), 2u);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 99.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 99.0), 42.0);
}

}  // namespace
}  // namespace ecnsharp

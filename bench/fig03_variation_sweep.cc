// Figure 3: larger RTT variations enlarge the performance loss of
// fixed-RTT threshold selection (§2.3, Observation 2).
//
// For variation k in 2..5x, derive the threshold from the average RTT and
// from the 90th-percentile RTT and compare: the throughput gap (large-flow
// FCT of AVG vs Tail) and the latency gap (short-flow p99 of Tail vs AVG)
// both grow with k.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 3: performance loss vs RTT variation (web search @50%)");
  const std::size_t flows = BenchFlowCount(1000, 5000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const Time base_rtt = Time::FromMicroseconds(70);
  const DataRate rate = DataRate::GigabitsPerSecond(10);

  // Average over 3 seeds, as the paper averages 3 runs (§5.1).
  const int kRuns = static_cast<int>(EnvInt("ECNSHARP_RUNS", 3));
  const std::vector<double> variations = {2.0, 3.0, 4.0, 5.0};
  std::vector<runner::JobSpec> specs;
  for (const double k : variations) {
    for (int run = 0; run < kRuns; ++run) {
      DumbbellExperimentConfig config;
      config.params = ParamsForVariation(k, base_rtt, rate);
      config.load = 0.5;
      config.flows = flows;
      config.rtt_variation = k;
      config.base_rtt = base_rtt;
      config.seed = seed + static_cast<std::uint64_t>(run);
      const std::string suffix = "@" + TP::Fmt(k, 0) + "x/run" +
                                 std::to_string(run);
      config.scheme = Scheme::kDctcpRedAvg;
      specs.push_back({"avg" + suffix, config});
      config.scheme = Scheme::kDctcpRedTail;
      specs.push_back({"tail" + suffix, config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fig03_variation_sweep", specs);

  TP table({"variation", "K(avg)KB", "K(p90)KB", "large avg: tail/avg",
            "short p99: tail/avg"});
  std::size_t job = 0;
  for (const double k : variations) {
    const SchemeParams params = ParamsForVariation(k, base_rtt, rate);
    double tail_large = 0.0, avg_large = 0.0;
    double tail_p99 = 0.0, avg_p99 = 0.0;
    for (int run = 0; run < kRuns; ++run) {
      const ExperimentResult avg = runner::FctResult(sweep[job++]);
      const ExperimentResult tail = runner::FctResult(sweep[job++]);
      tail_large += tail.large_flows.avg_us;
      avg_large += avg.large_flows.avg_us;
      tail_p99 += tail.short_flows.p99_us;
      avg_p99 += avg.short_flows.p99_us;
    }
    table.AddRow(
        {TP::Fmt(k, 0) + "x",
         std::to_string(params.red_avg_threshold_bytes / 1000),
         std::to_string(params.red_tail_threshold_bytes / 1000),
         Norm(tail_large, avg_large), Norm(tail_p99, avg_p99)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: the tail threshold wins on large flows (ratio < 1, "
      "gap growing\nwith variation: 6.7%% -> 29.8%%) but loses on the short-"
      "flow tail (ratio > 1,\n41%% -> 198%%) — both gaps widen as variation "
      "grows.\n");
  return 0;
}

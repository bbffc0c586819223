// Figure 2: instantaneous ECN marking cannot achieve high throughput and
// low latency simultaneously under RTT variation (§2.3, Observation 1).
//
// DCTCP-RED with thresholds 50..250 KB on the testbed dumbbell, web search
// at 50% load, 3x RTT variation (70-210 us). Low thresholds hurt large-flow
// FCT (throughput); high thresholds hurt the short-flow tail (queueing).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 2: DCTCP-RED threshold sweep (web search @50%, 3x RTT)");
  const std::size_t flows = BenchFlowCount(1000, 5000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const std::vector<std::uint64_t> thresholds = {50, 100, 150, 200, 250};
  std::vector<runner::JobSpec> specs;
  for (const std::uint64_t kb : thresholds) {
    DumbbellExperimentConfig config;
    config.scheme = Scheme::kDctcpRedTail;
    config.params.buffer_bytes = 4'000'000;  // deep-buffered testbed switch
    config.params.red_tail_threshold_bytes = kb * 1000;
    config.load = 0.5;
    config.flows = flows;
    config.rtt_variation = 3.0;
    config.seed = seed;
    specs.push_back({"K=" + std::to_string(kb) + "KB", config});
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fig02_threshold_sweep", specs);

  struct Row {
    std::uint64_t threshold;
    ExperimentResult result;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    rows.push_back({thresholds[i], sweep[i].result});
  }

  const ExperimentResult& base = rows.front().result;
  TP table({"K(KB)", "large avg(us)", "norm", "short p99(us)", "norm",
            "overall avg(us)", "norm"});
  for (const Row& row : rows) {
    const ExperimentResult& r = row.result;
    table.AddRow({std::to_string(row.threshold),
                  TP::Fmt(r.large_flows.avg_us, 0),
                  Norm(r.large_flows.avg_us, base.large_flows.avg_us),
                  TP::Fmt(r.short_flows.p99_us, 0),
                  Norm(r.short_flows.p99_us, base.short_flows.p99_us),
                  TP::Fmt(r.overall.avg_us, 0),
                  Norm(r.overall.avg_us, base.overall.avg_us)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: large-flow FCT falls as K grows (throughput recovers) "
      "while the\nshort-flow 99th percentile rises (standing queue) — no "
      "single K wins both.\n");
  return 0;
}

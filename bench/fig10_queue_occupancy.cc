// Figure 10: microscopic view of the bottleneck queue (16->1, data-mining
// elephants + 100-flow query burst).
//
// Paper headlines: DCTCP-RED-Tail holds a ~182-packet standing queue; ECN#
// drains it to ~8 packets; both absorb the 100-flow incast without loss,
// while CoDel overflows the buffer (drops ~125 packets).
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 10: queue occupancy with 100 concurrent query flows");
  const std::uint64_t seed = BenchSeed();
  std::printf("seed=%llu\n", static_cast<unsigned long long>(seed));

  const std::vector<Scheme> schemes = {Scheme::kDctcpRedTail, Scheme::kCodel,
                                       Scheme::kEcnSharp};
  const int kRuns = static_cast<int>(EnvInt("ECNSHARP_RUNS", 3));
  std::vector<runner::JobSpec> specs;
  for (const Scheme scheme : schemes) {
    for (int run = 0; run < kRuns; ++run) {
      IncastExperimentConfig config;
      config.scheme = scheme;
      config.query_flows = 100;
      config.seed = seed + static_cast<std::uint64_t>(run);
      specs.push_back({std::string(SchemeName(scheme)) + "/run" +
                           std::to_string(run),
                       config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fig10_queue_occupancy", specs);

  std::vector<IncastResult> results;  // seed `seed` run, for the trace
  TP summary({"scheme", "standing queue(pkts)", "peak(pkts)", "drops",
              "query timeouts"});
  std::size_t job = 0;
  for (const Scheme scheme : schemes) {
    double standing = 0.0;
    std::uint32_t peak = 0;
    std::uint64_t drops = 0;
    std::uint64_t timeouts = 0;
    for (int run = 0; run < kRuns; ++run) {
      const IncastResult& result = runner::IncastResultOf(sweep[job++]);
      standing += result.standing_queue_packets / kRuns;
      peak = std::max(peak, result.max_queue_packets);
      drops += result.drops;
      timeouts += result.query_timeouts;
      if (run == 0) results.push_back(result);
    }
    summary.AddRow({SchemeName(scheme), TP::Fmt(standing, 1),
                    std::to_string(peak),
                    TP::Fmt(static_cast<double>(drops) / kRuns, 0),
                    TP::Fmt(static_cast<double>(timeouts) / kRuns, 0)});
  }
  summary.Print();

  // Downsampled queue traces around the burst (the paper's 5 ms window).
  std::printf("\nQueue traces (packets, sampled every 250 us; burst at "
              "t=0):\n");
  std::vector<std::string> headers = {"t(ms)"};
  for (const Scheme scheme : schemes) headers.push_back(SchemeName(scheme));
  TP trace(std::move(headers));
  const Time burst = IncastExperimentConfig{}.burst_time;
  for (int step = -8; step <= 40; ++step) {
    const Time at = burst + Time::Microseconds(250) * step;
    std::vector<std::string> row = {TP::Fmt(step * 0.25, 2)};
    for (const IncastResult& result : results) {
      // Nearest sample at or after `at`.
      std::uint32_t packets = 0;
      for (const QueueMonitor::Sample& sample : result.queue_trace) {
        if (sample.at >= at) {
          packets = sample.packets;
          break;
        }
      }
      row.push_back(std::to_string(packets));
    }
    trace.AddRow(std::move(row));
  }
  trace.Print();

  std::printf(
      "\nExpected shape vs paper: RED-Tail standing queue ~threshold "
      "(~180 pkts) vs\nECN# far lower; CoDel (and only CoDel) drops packets "
      "during the burst.\n");
  return 0;
}

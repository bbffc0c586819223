// Ablation: Internet persistent-congestion AQMs (CoDel, PIE) vs ECN# in
// the datacenter regime (§6 related work).
//
// Both CoDel and PIE regulate only long-term queueing delay; the paper
// argues (and Fig. 10/11 show for CoDel) that datacenter traffic needs the
// instantaneous component too. This bench compares all three on the
// production-workload dumbbell and on the incast burst.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Ablation: Internet AQMs (CoDel, PIE) vs ECN#");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const std::vector<Scheme> schemes = {Scheme::kCodel, Scheme::kPie,
                                       Scheme::kEcnSharp};

  const std::vector<std::size_t> fanouts = {100, 125, 150, 175};
  std::vector<runner::JobSpec> specs;
  for (const Scheme scheme : schemes) {
    DumbbellExperimentConfig config;
    config.scheme = scheme;
    config.load = 0.7;
    config.flows = flows;
    config.seed = seed;
    specs.push_back({std::string(SchemeName(scheme)) + "/websearch70",
                     config});
  }
  for (const Scheme scheme : schemes) {
    for (const std::size_t n : fanouts) {
      IncastExperimentConfig config;
      config.scheme = scheme;
      config.query_flows = n;
      config.seed = seed;
      specs.push_back({std::string(SchemeName(scheme)) + "/fanout" +
                           std::to_string(n),
                       config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("ablation_internet_aqm", specs);
  std::size_t job = 0;

  std::printf("\n(a) Dumbbell web search @70%% load\n");
  TP fct({"scheme", "overall avg(us)", "short avg(us)", "short p99(us)",
          "large avg(us)", "timeouts"});
  for (const Scheme scheme : schemes) {
    const ExperimentResult& r = runner::FctResult(sweep[job++]);
    fct.AddRow({SchemeName(scheme), TP::Fmt(r.overall.avg_us, 0),
                TP::Fmt(r.short_flows.avg_us, 0),
                TP::Fmt(r.short_flows.p99_us, 0),
                TP::Fmt(r.large_flows.avg_us, 0),
                std::to_string(r.timeouts)});
  }
  fct.Print();

  std::printf("\n(b) 16->1 incast: burst drops by fanout (standing queue "
              "in parentheses)\n");
  std::vector<std::string> headers = {"scheme", "standing q(pkts)"};
  for (const std::size_t n : fanouts) {
    headers.push_back("drops N=" + std::to_string(n));
  }
  TP incast(std::move(headers));
  for (const Scheme scheme : schemes) {
    std::vector<std::string> row = {SchemeName(scheme), ""};
    for (std::size_t i = 0; i < fanouts.size(); ++i) {
      const IncastResult& r = runner::IncastResultOf(sweep[job++]);
      row[1] = TP::Fmt(r.standing_queue_packets, 1);
      row.push_back(std::to_string(r.drops));
    }
    incast.AddRow(std::move(row));
  }
  incast.Print();

  std::printf(
      "\nExpected: all three drain the standing queue, but burst tolerance "
      "is ordered\nCoDel (loses first, ~100) < PIE (~150; its arrival-time "
      "probabilistic marking\nreacts partially) < ECN# (~175, matching "
      "current practice).\n");
  return 0;
}

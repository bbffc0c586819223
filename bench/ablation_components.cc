// Ablation: why ECN# needs BOTH of its marking conditions (§3.2/§3.3).
//
// Compares full ECN# against instantaneous-only (the persistent detector
// disabled — behaves like TCN) and persistent-only (the instantaneous rule
// disabled — behaves like a CoDel-style conservative marker) on the three
// behaviours the paper cares about: standing queue, incast burst tolerance,
// and short-flow FCT under a production workload.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Ablation: ECN# = instantaneous + persistent marking");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const std::vector<Scheme> schemes = {
      Scheme::kEcnSharpInstOnly, Scheme::kEcnSharpPstOnly, Scheme::kEcnSharp};

  // One mixed-family sweep: per scheme a standing-queue run, an incast
  // burst at fanout 125, and a 70%-load web-search dumbbell run.
  std::vector<runner::JobSpec> specs;
  for (const Scheme scheme : schemes) {
    specs.push_back({std::string(SchemeName(scheme)) + "/standing",
                     IncastConfig(scheme, 0, seed)});
    specs.push_back({std::string(SchemeName(scheme)) + "/burst125",
                     IncastConfig(scheme, 125, seed)});

    DumbbellExperimentConfig fct;
    fct.scheme = scheme;
    fct.load = 0.7;
    fct.flows = flows;
    fct.seed = seed;
    specs.push_back({std::string(SchemeName(scheme)) + "/websearch70",
                     fct});
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("ablation_components", specs);

  // (a) Standing queue (no burst) and (b) incast drops at fanout 125.
  TP incast_table({"variant", "standing queue(pkts)", "burst drops(N=125)",
                   "query p99(us, N=125)"});
  std::size_t job = 0;
  for (const Scheme scheme : schemes) {
    const ExperimentResult& s = sweep[job++].result;
    const ExperimentResult& b = sweep[job++].result;
    ++job;  // websearch result consumed below
    incast_table.AddRow({SchemeName(scheme),
                         TP::Fmt(s.standing_queue_packets, 1),
                         std::to_string(b.burst_drops),
                         TP::Fmt(b.burst_fct.p99_us, 0)});
  }
  std::printf("\n(a)/(b) 16->1 incast with background elephants\n");
  incast_table.Print();

  // (c) FCT under the web search workload at 70% load.
  std::printf("\n(c) Dumbbell web search @70%% load\n");
  TP fct_table({"variant", "overall avg(us)", "short avg(us)",
                "short p99(us)", "large avg(us)"});
  job = 2;
  for (const Scheme scheme : schemes) {
    const ExperimentResult& r = sweep[job].result;
    job += 3;
    fct_table.AddRow({SchemeName(scheme), TP::Fmt(r.overall.avg_us, 0),
                      TP::Fmt(r.short_flows.avg_us, 0),
                      TP::Fmt(r.short_flows.p99_us, 0),
                      TP::Fmt(r.large_flows.avg_us, 0)});
  }
  fct_table.Print();

  std::printf(
      "\nExpected: inst-only leaves a standing queue (bad (a), good (b)); "
      "pst-only\ndrains it but collapses under the burst (good (a), bad "
      "(b)); full ECN# gets\nboth — the paper's design argument in one "
      "table.\n");
  return 0;
}

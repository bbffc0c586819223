// Incast scenario: 16 senders, long-lived background flows plus a burst of
// concurrent partition/aggregate-style query flows into one receiver —
// the workload that separates burst-tolerant AQMs from conservative ones.
//
//   $ ./build/examples/incast_burst [query_flows]
//
// Prints per-scheme standing queue, burst peak, drops, and query FCT. The
// run is the §5.4 preset (IncastDumbbell): a dumbbell with long flows and
// one scenario incast burst.
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace ecnsharp;

  const std::uint32_t query_flows =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 100;
  PrintBanner("Incast burst: 16 -> 1, " + std::to_string(query_flows) +
              " concurrent query flows");

  TablePrinter table({"scheme", "standing q(pkts)", "peak q(pkts)", "drops",
                      "query avg", "query p99", "timeouts"});
  for (const Scheme scheme : {Scheme::kDctcpRedTail, Scheme::kCodel,
                              Scheme::kEcnSharp}) {
    DumbbellExperimentConfig config = IncastDumbbell(/*seed=*/1);
    config.scheme = scheme;
    config.scenario.actions[0].flows = query_flows;
    const ExperimentResult r = RunDumbbell(config);
    table.AddRow({SchemeName(scheme),
                  TablePrinter::Fmt(r.standing_queue_packets, 1),
                  std::to_string(r.burst_max_queue_packets),
                  std::to_string(r.burst_drops),
                  TablePrinter::FmtUs(r.burst_fct.avg_us),
                  TablePrinter::FmtUs(r.burst_fct.p99_us),
                  std::to_string(r.timeouts)});
  }
  table.Print();

  std::printf(
      "\nCoDel marks only on persistent congestion, so a synchronized burst "
      "overruns\nthe buffer before it reacts; ECN#'s instantaneous marking "
      "tames the burst\nwhile its persistent marking keeps the standing "
      "queue low.\n");
  return 0;
}

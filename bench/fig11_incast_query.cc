// Figure 11: query-flow completion time vs number of concurrent senders
// (25..200), schemes {DCTCP-RED-Tail, CoDel, ECN#}.
//
// Paper headlines: CoDel starts losing packets (and timing out) at ~100
// concurrent query flows; ECN# sustains ~1.75x more before its first loss,
// tracking DCTCP-RED-Tail's burst tolerance.
#include <cstdio>
#include <map>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 11: query FCT vs concurrent senders (16->1 incast)");
  const std::uint64_t seed = BenchSeed();
  std::printf("seed=%llu\n", static_cast<unsigned long long>(seed));

  const std::vector<Scheme> schemes = {Scheme::kDctcpRedTail, Scheme::kCodel,
                                       Scheme::kEcnSharp};
  std::vector<std::size_t> fanouts = {25, 50, 75, 100, 125, 150, 175, 200};

  std::vector<runner::JobSpec> specs;
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
      runner::RunSweep("fig11_incast_query", specs);

  std::map<Scheme, std::map<std::size_t, IncastResult>> results;
  std::map<Scheme, std::size_t> first_loss;
  std::size_t job = 0;
  for (const Scheme scheme : schemes) {
    for (const std::size_t n : fanouts) {
      results[scheme][n] = runner::IncastResultOf(sweep[job++]);
      if (results[scheme][n].drops > 0 && first_loss[scheme] == 0) {
        first_loss[scheme] = n;
      }
    }
  }

  const auto print_metric = [&](const char* name,
                                double (*get)(const IncastResult&)) {
    std::printf("\n%s (query flows, microseconds)\n", name);
    std::vector<std::string> headers = {"senders"};
    for (const Scheme scheme : schemes) headers.push_back(SchemeName(scheme));
    TP table(std::move(headers));
    for (const std::size_t n : fanouts) {
      std::vector<std::string> row = {std::to_string(n)};
      for (const Scheme scheme : schemes) {
        row.push_back(TP::Fmt(get(results[scheme][n]), 0));
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  };
  print_metric("(a) AVG query FCT",
               [](const IncastResult& r) { return r.query_fct.avg_us; });
  print_metric("(b) 99th percentile query FCT",
               [](const IncastResult& r) { return r.query_fct.p99_us; });

  std::printf("\nDrops per fanout:\n");
  std::vector<std::string> headers = {"senders"};
  for (const Scheme scheme : schemes) headers.push_back(SchemeName(scheme));
  TP drops(std::move(headers));
  for (const std::size_t n : fanouts) {
    std::vector<std::string> row = {std::to_string(n)};
    for (const Scheme scheme : schemes) {
      row.push_back(std::to_string(results[scheme][n].drops));
    }
    drops.AddRow(std::move(row));
  }
  drops.Print();

  std::printf("\nFirst fanout with packet loss:");
  for (const Scheme scheme : schemes) {
    const std::string at = first_loss[scheme] == 0
                               ? ">200"
                               : std::to_string(first_loss[scheme]);
    std::printf("  %s: %s", SchemeName(scheme), at.c_str());
  }
  std::printf(
      "\nExpected shape vs paper: CoDel loses first (paper: at 100); ECN# "
      "sustains\nmeaningfully more concurrent senders (paper: 175, i.e. "
      "1.75x CoDel).\n");
  return 0;
}

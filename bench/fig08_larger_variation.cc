// Figure 8: ECN# vs DCTCP-RED-Tail as the RTT variation grows from 3x to
// 5x (web search workload). NFCT kx = ECN# FCT normalized to DCTCP-RED-Tail
// at variation k.
//
// Paper headlines: overall FCT stays comparable (within ~7.6%), while the
// short-flow p99 advantage grows from ~37% at 3x to ~73% at 5x.
#include <cstdio>
#include <map>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 8: ECN# vs DCTCP-RED-Tail under larger RTT variations");
  const std::size_t flows = BenchFlowCount(1000, 5000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const Time base_rtt = Time::FromMicroseconds(70);
  const DataRate rate = DataRate::GigabitsPerSecond(10);
  const std::vector<int> loads = FigureLoads();
  const std::vector<double> variations = {3.0, 4.0, 5.0};

  std::vector<runner::JobSpec> specs;
  for (const double k : variations) {
    for (const int load : loads) {
      DumbbellExperimentConfig config;
      config.params = ParamsForVariation(k, base_rtt, rate);
      config.load = load / 100.0;
      config.flows = flows;
      config.rtt_variation = k;
      config.base_rtt = base_rtt;
      config.seed = seed;
      const std::string suffix = "@" + TP::Fmt(k, 0) + "x/" +
                                 std::to_string(load) + "%";
      config.scheme = Scheme::kEcnSharp;
      specs.push_back({"ecn-sharp" + suffix, config});
      config.scheme = Scheme::kDctcpRedTail;
      specs.push_back({"red-tail" + suffix, config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fig08_larger_variation", specs);

  // results[k][load] = (ecn# result, red-tail result)
  std::map<double, std::map<int, std::pair<ExperimentResult,
                                           ExperimentResult>>> results;
  std::size_t job = 0;
  for (const double k : variations) {
    for (const int load : loads) {
      const ExperimentResult sharp = runner::FctResult(sweep[job++]);
      const ExperimentResult tail = runner::FctResult(sweep[job++]);
      results[k][load] = {sharp, tail};
    }
  }

  const auto print_metric =
      [&](const char* name, double (*get)(const ExperimentResult&)) {
        std::printf("\n%s — NFCT = ECN# / DCTCP-RED-Tail\n", name);
        std::vector<std::string> headers = {"load"};
        for (const double k : variations) {
          headers.push_back("NFCT " + TP::Fmt(k, 0) + "x");
        }
        TP table(std::move(headers));
        for (const int load : loads) {
          std::vector<std::string> row = {std::to_string(load) + "%"};
          for (const double k : variations) {
            const auto& [sharp, tail] = results[k][load];
            row.push_back(Norm(get(sharp), get(tail)));
          }
          table.AddRow(std::move(row));
        }
        table.Print();
      };

  print_metric("(a) Overall: AVG FCT",
               [](const ExperimentResult& r) { return r.overall.avg_us; });
  print_metric("(b) (0,100KB]: 99th percentile FCT",
               [](const ExperimentResult& r) { return r.short_flows.p99_us; });

  std::printf(
      "\nExpected shape vs paper: (a) stays near 1.0 at all variations; (b) "
      "drops\nwell below 1.0 and falls further as the variation grows.\n");
  return 0;
}

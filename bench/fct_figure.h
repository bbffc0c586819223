// Shared driver for the testbed-style FCT figures (Figs. 6, 7): loads x
// schemes on the dumbbell, four breakdown tables normalized to
// DCTCP-RED-Tail.
#ifndef ECNSHARP_BENCH_FCT_FIGURE_H_
#define ECNSHARP_BENCH_FCT_FIGURE_H_

#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp::bench {

inline void RunFctFigure(const char* title, const char* sweep_name,
                         const EmpiricalCdf& workload,
                         std::size_t default_flows) {
  using TP = TablePrinter;
  PrintBanner(title);
  const std::size_t flows = BenchFlowCount(default_flows, default_flows * 5);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const std::vector<Scheme> schemes = {Scheme::kDctcpRedTail,
                                       Scheme::kDctcpRedAvg, Scheme::kCodel,
                                       Scheme::kEcnSharp};
  const std::vector<int> loads = FigureLoads();

  std::vector<runner::JobSpec> specs;
  for (const int load : loads) {
    for (const Scheme scheme : schemes) {
      DumbbellExperimentConfig config;
      config.scheme = scheme;
      // Deep-buffered testbed switch (losses only from extreme bursts).
      config.params.buffer_bytes = 4'000'000;
      config.workload = &workload;
      config.load = load / 100.0;
      config.flows = flows;
      config.rtt_variation = 3.0;
      config.seed = seed;
      specs.push_back({std::string(SchemeName(scheme)) + "@" +
                           std::to_string(load) + "%",
                       config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep(sweep_name, specs);

  std::map<int, std::map<Scheme, ExperimentResult>> results;
  std::size_t job = 0;
  for (const int load : loads) {
    for (const Scheme scheme : schemes) {
      results[load][scheme] = runner::FctResult(sweep[job++]);
      if (results[load][scheme].flows_completed != flows) {
        std::printf("WARNING: %s @%d%%: only %zu/%zu flows completed\n",
                    SchemeName(scheme), load,
                    results[load][scheme].flows_completed, flows);
      }
    }
  }

  struct Metric {
    const char* name;
    double (*get)(const ExperimentResult&);
  };
  const Metric metrics[] = {
      {"(a) Overall: AVG FCT",
       [](const ExperimentResult& r) { return r.overall.avg_us; }},
      {"(b) (0,100KB]: AVG FCT",
       [](const ExperimentResult& r) { return r.short_flows.avg_us; }},
      {"(c) (0,100KB]: 99th percentile FCT",
       [](const ExperimentResult& r) { return r.short_flows.p99_us; }},
      // Not a paper subfigure: the 90th percentile separates "marking
      // threshold too low" (p90 rises with p99) from pure tail losses.
      {"(c+) (0,100KB]: 90th percentile FCT",
       [](const ExperimentResult& r) { return r.short_flows.p90_us; }},
      {"(d) [10MB,inf): AVG FCT",
       [](const ExperimentResult& r) { return r.large_flows.avg_us; }},
  };

  for (const Metric& metric : metrics) {
    std::printf("\n%s — microseconds (normalized to DCTCP-RED-Tail)\n",
                metric.name);
    std::vector<std::string> headers = {"load"};
    for (const Scheme scheme : schemes) headers.push_back(SchemeName(scheme));
    TP table(std::move(headers));
    for (const int load : loads) {
      const double base = metric.get(results[load][Scheme::kDctcpRedTail]);
      std::vector<std::string> row = {std::to_string(load) + "%"};
      for (const Scheme scheme : schemes) {
        const double value = metric.get(results[load][scheme]);
        row.push_back(TP::Fmt(value, 0) + " (" + Norm(value, base) + ")");
      }
      table.AddRow(std::move(row));
    }
    table.Print();
  }
}

}  // namespace ecnsharp::bench

#endif  // ECNSHARP_BENCH_FCT_FIGURE_H_

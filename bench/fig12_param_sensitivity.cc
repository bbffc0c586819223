// Figure 12: ECN# parameter sensitivity. Sweeping pst_interval (100-250 us)
// and pst_target (6-18 us) around the rule-of-thumb values changes the
// overall FCT by well under a few percent on both workloads.
#include <cstdio>

#include "bench_common.h"
#include "workload/empirical_cdf.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

runner::JobSpec SensitivityJob(const std::string& name,
                               const EmpiricalCdf& workload,
                               const EcnSharpConfig& aqm, std::size_t flows,
                               std::uint64_t seed) {
  DumbbellExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.params = SimulationSchemeParams();
  config.params.ecn_sharp = aqm;
  config.workload = &workload;
  config.load = 0.6;
  config.flows = flows;
  config.rtt_variation = 3.0;
  config.base_rtt = Time::FromMicroseconds(80);
  config.seed = seed;
  return {name, config};
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner("Fig. 12: ECN# parameter sensitivity (overall FCT)");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const EcnSharpConfig defaults = SimulationSchemeParams().ecn_sharp;

  struct WorkloadEntry {
    const char* name;
    const EmpiricalCdf* cdf;
    std::size_t flows;
  };
  const WorkloadEntry workloads[] = {
      {"web search", &WebSearchWorkload(), flows},
      {"data mining", &DataMiningWorkload(), flows / 2},
  };

  const std::vector<int> intervals = {100, 150, 200, 250};
  const std::vector<int> targets = {6, 10, 14, 18};

  std::vector<ecnsharp::runner::JobSpec> specs;
  for (const int us : intervals) {
    EcnSharpConfig aqm = defaults;
    aqm.pst_interval = Time::FromMicroseconds(us);
    for (std::size_t w = 0; w < 2; ++w) {
      specs.push_back(SensitivityJob(
          "interval" + std::to_string(us) + "/" + workloads[w].name,
          *workloads[w].cdf, aqm, workloads[w].flows, seed));
    }
  }
  for (const int us : targets) {
    EcnSharpConfig aqm = defaults;
    aqm.pst_target = Time::FromMicroseconds(us);
    for (std::size_t w = 0; w < 2; ++w) {
      specs.push_back(SensitivityJob(
          "target" + std::to_string(us) + "/" + workloads[w].name,
          *workloads[w].cdf, aqm, workloads[w].flows, seed));
    }
  }
  const std::vector<ecnsharp::runner::JobResult> sweep =
      runner::RunSweep("fig12_param_sensitivity", specs);
  std::size_t job = 0;

  std::printf("\n(a) Sensitivity to pst_interval (pst_target=%.0fus)\n",
              defaults.pst_target.ToMicroseconds());
  TP interval_table({"pst_interval(us)", "web search (norm)",
                     "data mining (norm)"});
  std::vector<std::vector<double>> interval_fct(2);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    for (std::size_t w = 0; w < 2; ++w) {
      interval_fct[w].push_back(
          ecnsharp::runner::FctResult(sweep[job++]).overall.avg_us);
    }
  }
  // Normalize to the value closest to the default interval (240 -> 250).
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    interval_table.AddRow({std::to_string(intervals[i]),
                           Norm(interval_fct[0][i], interval_fct[0].back()),
                           Norm(interval_fct[1][i], interval_fct[1].back())});
  }
  interval_table.Print();

  std::printf("\n(b) Sensitivity to pst_target (pst_interval=%.0fus)\n",
              defaults.pst_interval.ToMicroseconds());
  TP target_table({"pst_target(us)", "web search (norm)",
                   "data mining (norm)"});
  std::vector<std::vector<double>> target_fct(2);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    for (std::size_t w = 0; w < 2; ++w) {
      target_fct[w].push_back(
          ecnsharp::runner::FctResult(sweep[job++]).overall.avg_us);
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    target_table.AddRow({std::to_string(targets[i]),
                         Norm(target_fct[0][i], target_fct[0][1]),
                         Norm(target_fct[1][i], target_fct[1][1])});
  }
  target_table.Print();

  std::printf(
      "\nExpected shape vs paper: all normalized values within a few "
      "percent of 1.0\n(paper: <1%% web search, <0.2%% data mining).\n");
  return 0;
}

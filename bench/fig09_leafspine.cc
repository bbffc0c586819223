// Figure 9: large-scale leaf-spine simulations (8 spine x 8 leaf x 16
// hosts, ECMP, web search workload, RTT 80-240 us).
//
// Paper headlines: vs DCTCP-RED-Tail, ECN# achieves 26.3-37.4% lower
// overall average FCT and 18.5-36.9% lower short-flow FCT across loads.
#include <cstdio>
#include <map>

#include "bench_common.h"

int main() {
  using namespace ecnsharp;
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Fig. 9: leaf-spine large-scale simulation (web search)");
  const bool full = EnvFlag("ECNSHARP_FULL");
  const std::size_t flows = BenchFlowCount(full ? 8000 : 2000, 8000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  LeafSpineConfig topo;  // defaults: 8x8x16, 10G
  if (!full) {
    // Laptop default: quarter-scale fabric, same oversubscription.
    topo.spines = 4;
    topo.leaves = 4;
    topo.hosts_per_leaf = 8;
  }
  std::printf("fabric: %zu spine x %zu leaf x %zu hosts/leaf\n", topo.spines,
              topo.leaves, topo.hosts_per_leaf);

  const std::vector<Scheme> schemes = {Scheme::kDctcpRedTail,
                                       Scheme::kEcnSharp};
  const std::vector<int> loads = FigureLoads(/*from20=*/true);

  std::vector<runner::JobSpec> specs;
  for (const int load : loads) {
    for (const Scheme scheme : schemes) {
      LeafSpineExperimentConfig config;
      config.scheme = scheme;
      config.params = SimulationSchemeParams();
      config.load = load / 100.0;
      config.flows = flows;
      config.topo = topo;
      config.seed = seed;
      specs.push_back({std::string(SchemeName(scheme)) + "@" +
                           std::to_string(load) + "%",
                       config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fig09_leafspine", specs);

  std::map<int, std::map<Scheme, ExperimentResult>> results;
  std::size_t job = 0;
  for (const int load : loads) {
    for (const Scheme scheme : schemes) {
      results[load][scheme] = sweep[job++].result;
    }
  }

  const auto print_metric =
      [&](const char* name, double (*get)(const ExperimentResult&)) {
        std::printf("\n%s — microseconds (normalized to DCTCP-RED-Tail)\n",
                    name);
        TP table({"load", "DCTCP-RED-Tail", "ECN#", "ECN#/Tail"});
        for (const int load : loads) {
          const double tail = get(results[load][Scheme::kDctcpRedTail]);
          const double sharp = get(results[load][Scheme::kEcnSharp]);
          table.AddRow({std::to_string(load) + "%", TP::Fmt(tail, 0),
                        TP::Fmt(sharp, 0), Norm(sharp, tail)});
        }
        table.Print();
      };

  print_metric("(a) Overall: AVG FCT",
               [](const ExperimentResult& r) { return r.overall.avg_us; });
  print_metric("(b) (0,100KB]: AVG FCT",
               [](const ExperimentResult& r) { return r.short_flows.avg_us; });

  std::printf(
      "\nExpected shape vs paper: ECN#/Tail well below 1.0 on both metrics "
      "across loads\n(paper: 0.63-0.74 overall, 0.63-0.82 short flows).\n");
  return 0;
}

// Fat-tree scaling: the websearch workload on k-ary fat-trees from 128 to
// 8192 hosts, with ECN# running fabric-wide and a mid-run re-estimation.
//
// The paper's §5 large-scale runs (and both related fat-tree repos) live in
// the thousands-of-hosts regime; this bench reports how the simulator's
// wall-clock cost scales with fabric size. Each scale runs the same
// pipeline end-to-end: k^3/4 hosts under three tiers of salted ECMP, a
// flap of the canonical fabric bottleneck, an RTT shift on a fixed slice
// of hosts, and a fabric-wide ECN# re-estimation over all 5k^3/4 switch
// egress ports (§3.4's rule-of-thumb through the Topology interface).
//
// The headline metric is sim-to-wall (simulated seconds per wall-clock
// second) per scale — the number the ROADMAP's intra-run parallelism item
// needs a baseline for. Jobs run sequentially on one worker so wall times
// are honest; the exported results/fattree_scale.json carries configs +
// results only (no wall-clock), so it stays byte-identical across runs.
//
//   ECNSHARP_FATTREE_KS=8,16   override the k list (CI runs the 1k-host
//                              k=16 point only)
//   ECNSHARP_FLOWS=<n>         fixed flow count for every scale
//   ECNSHARP_FULL=1            4x flows per scale
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dynamics/scenario.h"

namespace {

using namespace ecnsharp;

std::vector<std::size_t> ScaleList() {
  const char* env = std::getenv("ECNSHARP_FATTREE_KS");
  if (env == nullptr || *env == '\0') return {8, 16, 32};
  std::vector<std::size_t> ks;
  std::string token;
  for (const char* p = env;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) ks.push_back(std::stoul(token));
      token.clear();
      if (*p == '\0') break;
    } else {
      token += *p;
    }
  }
  return ks;
}

ScenarioScript ScaleScript() {
  ScenarioScript script;
  script.seed = 42;

  // One 300 us outage of the canonical fabric bottleneck (edge 0's first
  // uplink), queued packets purged.
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(5);
  down.target = -1;
  down.drop_queued = true;
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(300);
  script.actions.push_back(up);

  // RTT shift on the first 16 hosts (every scale has >= 128), then a
  // fabric-wide ECN# re-estimation from the new distribution. A fixed-size
  // slice keeps the script — and the exported config record — independent
  // of k.
  for (int h = 0; h < 16; ++h) {
    ScenarioAction shift;
    shift.kind = ScenarioActionKind::kSetHostDelay;
    shift.target = h;
    shift.at = Time::Milliseconds(6);
    shift.delay_us = 160.0;
    shift.delay_hi_us = 480.0;
    script.actions.push_back(shift);
  }
  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(7);
  script.actions.push_back(reest);
  return script;
}

}  // namespace

int main() {
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner(
      "Fat-tree scaling: websearch + ECN# + re-estimation at 128..8192 "
      "hosts");
  const std::uint64_t seed = BenchSeed();
  const std::vector<std::size_t> ks = ScaleList();

  std::vector<runner::JobSpec> specs;
  std::vector<std::size_t> host_counts;
  for (const std::size_t k : ks) {
    const std::size_t hosts = k * k * k / 4;
    // Flow count grows with the fabric (twice the host count, capped so the
    // default 8192-host point stays laptop-sized); the offered load per
    // access link is the same at every scale.
    const std::size_t default_flows = std::min<std::size_t>(2 * hosts, 4096);
    FatTreeExperimentConfig config;
    config.topo.k = k;
    config.scheme = Scheme::kEcnSharp;
    config.load = 0.3;
    config.flows = BenchFlowCount(default_flows, 4 * default_flows);
    config.seed = seed;
    config.scenario = ScaleScript();
    specs.push_back({"k=" + std::to_string(k), config});
    host_counts.push_back(hosts);
  }
  PrintScale(specs.empty() ? 0 : std::get<FatTreeExperimentConfig>(
                                     specs[0].config).flows, seed);

  // One worker, deliberately: wall_seconds per job is the datum here, and
  // concurrent jobs would contend for cores and poison it.
  runner::SweepOptions options;
  options.jobs = 1;
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("fattree_scale", specs, options);

  TP table({"k", "hosts", "sw ports", "flows", "sim(s)", "wall(s)",
            "sim/wall", "overall avg(us)", "short p99(us)", "large avg(us)",
            "marks", "drops"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentResult r = sweep[i].result;
    const std::size_t k = ks[i];
    const std::size_t ports = 5 * k * k * k / 4;
    const auto& config = std::get<FatTreeExperimentConfig>(specs[i].config);
    table.AddRow({std::to_string(k), std::to_string(host_counts[i]),
                  std::to_string(ports), std::to_string(config.flows),
                  TP::Fmt(r.sim_seconds, 3),
                  TP::Fmt(sweep[i].wall_seconds, 2),
                  TP::Fmt(r.sim_seconds / sweep[i].wall_seconds, 4),
                  TP::Fmt(r.overall.avg_us, 1),
                  TP::Fmt(r.short_flows.p99_us, 1),
                  TP::Fmt(r.large_flows.avg_us, 1),
                  std::to_string(r.bottleneck.ce_marked),
                  std::to_string(r.bottleneck.dropped_overflow)});
  }
  table.Print();

  std::printf(
      "\nExpected shape: FCTs are roughly scale-invariant (same per-link\n"
      "load, same websearch mix), while sim-to-wall degrades superlinearly\n"
      "with host count — the serial-event-loop baseline the ROADMAP's\n"
      "intra-run parallelism item attacks.\n");
  return 0;
}

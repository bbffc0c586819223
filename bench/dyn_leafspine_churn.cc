// Beyond the paper: the §5.3 leaf-spine workload under fabric link flaps
// and an RTT-distribution shift, with and without ECN# re-estimation.
//
// The large-scale simulations of §5.3 assume a static fabric. Production
// fabrics are not: uplinks flap, and the base-RTT distribution drifts as
// services migrate. This bench runs the same web-search workload on the
// leaf-spine topology while a scenario script
//
//   * flaps a leaf uplink four times (600 us outages, queued packets
//     purged — ECMP keeps hashing flows onto the dead port, so they stall
//     and retransmit),
//   * shifts every host's extra delay upward mid-run (re-drawn from
//     [160, 480] us, invalidating the §5.3 thresholds), and
//   * for the "+reest" variant re-derives the ECN# thresholds on every
//     switch egress port from the new RTT distribution (§3.4's
//     rule-of-thumb, applied fabric-wide through the Topology interface).
//
// The scenario (same seed everywhere) adds exactly the same event sequence
// to every job, so FCT deltas are attributable to the scheme alone. Queue
// sampling is enabled to exercise the fabric-wide monitor aggregation.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "dynamics/scenario.h"
#include "harness/trace_export.h"
#include "runner/json_export.h"
#include "trace/trace_recorder.h"

namespace {

using namespace ecnsharp;

ScenarioScript ChurnScript(std::size_t hosts, bool reestimate) {
  ScenarioScript script;
  script.seed = 42;

  // Four 600 us outages of the canonical fabric bottleneck (leaf 0's first
  // uplink, target -1 on any topology), 12 ms apart.
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(10);
  down.target = -1;
  down.drop_queued = true;
  down.repeat = 4;
  down.period = Time::Milliseconds(12);
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(600);
  script.actions.push_back(up);

  // Mid-run RTT shift: every host re-draws its extra delay from a higher
  // range, so the thresholds derived for [80, 240] us base RTTs go stale.
  // The shift lands early (15 ms) so the bulk of the workload — and two of
  // the four flaps — runs against the new distribution.
  for (std::size_t h = 0; h < hosts; ++h) {
    ScenarioAction shift;
    shift.kind = ScenarioActionKind::kSetHostDelay;
    shift.target = static_cast<int>(h);
    shift.at = Time::Milliseconds(15);
    shift.delay_us = 160.0;
    shift.delay_hi_us = 480.0;
    script.actions.push_back(shift);
  }

  if (reestimate) {
    ScenarioAction reest;
    reest.kind = ScenarioActionKind::kReestimateEcnSharp;
    reest.at = Time::Milliseconds(17);
    script.actions.push_back(reest);
  }
  return script;
}

}  // namespace

int main() {
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner(
      "Dynamic leaf-spine churn: link flaps + RTT shift, "
      "DCTCP vs ECN# vs ECN#+re-estimation");
  const bool full = EnvFlag("ECNSHARP_FULL");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  LeafSpineConfig topo;  // defaults: 8x8x16, 10G
  if (!full) {
    // Laptop default: quarter-scale fabric, same oversubscription.
    topo.spines = 4;
    topo.leaves = 4;
    topo.hosts_per_leaf = 8;
  }
  const std::size_t hosts = topo.leaves * topo.hosts_per_leaf;
  std::printf("fabric: %zu spine x %zu leaf x %zu hosts/leaf\n", topo.spines,
              topo.leaves, topo.hosts_per_leaf);

  struct Variant {
    const char* name;
    Scheme scheme;
    bool reestimate;
  };
  const Variant variants[] = {
      {"dctcp-tail", Scheme::kDctcpRedTail, false},
      {"ecn#", Scheme::kEcnSharp, false},
      {"ecn#+reest", Scheme::kEcnSharp, true},
  };

  std::vector<runner::JobSpec> specs;
  for (const Variant& variant : variants) {
    LeafSpineExperimentConfig config;
    config.scheme = variant.scheme;
    // Thresholds for the *initial* §5.3 distribution; the shift
    // invalidates them, which is the point.
    config.params = SimulationSchemeParams();
    config.load = 0.7;
    config.flows = flows;
    config.topo = topo;
    config.seed = seed;
    config.queue_sample_period = Time::FromMicroseconds(100);
    config.scenario = ChurnScript(hosts, variant.reestimate);
    // Flight-recorder tracing on the headline variant: the exported time
    // series shows the flaps and the post-shift threshold recovery that the
    // FCT table only aggregates.
    config.trace.enabled = variant.reestimate;
    specs.push_back({variant.name, config});
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("dyn_leafspine_churn", specs);

  // Export the traced variant's flight recorder next to the sweep JSON
  // (results/dyn_leafspine_churn_trace.json unless redirected/disabled the
  // same way as the sweep export).
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::shared_ptr<const TraceRecorder> trace =
        runner::FctResult(sweep[i]).trace;
    if (trace == nullptr) continue;
    const std::string path =
        runner::ResultsPath("dyn_leafspine_churn_trace.json");
    if (path.empty()) break;
    if (runner::WriteTextFile(path, TraceToJson(*trace).Dump())) {
      std::printf("trace (%s): %llu events -> %s\n", specs[i].name.c_str(),
                  static_cast<unsigned long long>(trace->total_events()),
                  path.c_str());
    }
    break;
  }

  TP table({"variant", "overall avg(us)", "short avg(us)", "short p99(us)",
            "large avg(us)", "timeouts", "flap drops", "avg q(pkts)",
            "peak q(pkts)"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentResult r = runner::FctResult(sweep[i]);
    table.AddRow({specs[i].name, TP::Fmt(r.overall.avg_us, 1),
                  TP::Fmt(r.short_flows.avg_us, 1),
                  TP::Fmt(r.short_flows.p99_us, 1),
                  TP::Fmt(r.large_flows.avg_us, 1),
                  std::to_string(r.timeouts),
                  std::to_string(r.link_down_drops + r.bottleneck.purged),
                  TP::Fmt(r.avg_queue_packets, 2),
                  std::to_string(r.max_queue_packets)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: the flaps hit all variants identically; after the\n"
      "RTT shift ECN#'s stale thresholds no longer match the new (larger)\n"
      "RTTs, and fabric-wide re-estimation recovers most of the large-flow\n"
      "FCT inflation while keeping the short-flow tail.\n");
  return 0;
}

// Beyond the paper: FCT under *time-varying* RTT distributions.
//
// The paper derives ECN#'s thresholds from an RTT distribution measured
// once (§3.4) and keeps it fixed for the whole run. This bench scripts a
// mid-run distribution shift — every sender's netem-style extra delay
// re-draws from a 4x wider range every 40 ms — and compares three
// configurations under identical churn:
//
//   dctcp-tail   DCTCP with the RED threshold for the *initial* p90 RTT
//   ecn#         ECN# with thresholds for the initial distribution
//   ecn#+reest   ECN# plus a scripted kReestimateEcnSharp after each shift,
//                the operator re-measurement loop §3.4 assumes
//
// The scenario (same seed everywhere) adds exactly the same event sequence
// to every job, so FCT deltas are attributable to the scheme alone.
#include <cstdio>

#include "bench_common.h"
#include "dynamics/scenario.h"

namespace {

using namespace ecnsharp;

// Senders start with extras in [0, 140] us (variation 3x on a 70 us base);
// from 20 ms on, every 40 ms each sender re-draws from [140, 560] us —
// an upward shift plus ongoing churn.
ScenarioScript ChurnScript(std::size_t senders, bool reestimate) {
  ScenarioScript script;
  script.seed = 42;
  for (std::size_t i = 0; i < senders; ++i) {
    ScenarioAction shift;
    shift.kind = ScenarioActionKind::kSetHostDelay;
    shift.target = static_cast<int>(i);
    shift.at = Time::Milliseconds(20);
    shift.delay_us = 140.0;
    shift.delay_hi_us = 560.0;
    shift.repeat = 4;
    shift.period = Time::Milliseconds(40);
    shift.jitter = Time::Milliseconds(4);
    script.actions.push_back(shift);
  }
  if (reestimate) {
    // 25 ms > 20 ms + max jitter: re-estimation always sees the new delays.
    ScenarioAction reest;
    reest.kind = ScenarioActionKind::kReestimateEcnSharp;
    reest.at = Time::Milliseconds(25);
    reest.repeat = 4;
    reest.period = Time::Milliseconds(40);
    script.actions.push_back(reest);
  }
  return script;
}

}  // namespace

int main() {
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Dynamic RTT churn: DCTCP vs ECN# vs ECN#+re-estimation");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const Time base_rtt = Time::FromMicroseconds(70);
  const DataRate rate = DataRate::GigabitsPerSecond(10);

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
    DumbbellExperimentConfig config;
    config.scheme = variant.scheme;
    // Thresholds derived for the *initial* 3x distribution; the shift
    // invalidates them, which is the point.
    config.params = ParamsForVariation(3.0, base_rtt, rate);
    config.load = 0.5;
    config.flows = flows;
    config.rtt_variation = 3.0;
    config.base_rtt = base_rtt;
    config.seed = seed;
    config.scenario = ChurnScript(config.senders, variant.reestimate);
    specs.push_back({variant.name, config});
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("dyn_rtt_churn", specs);

  TP table({"variant", "overall avg(us)", "short avg(us)", "short p90(us)",
            "short p99(us)", "large avg(us)", "timeouts"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentResult r = runner::FctResult(sweep[i]);
    table.AddRow({specs[i].name, TP::Fmt(r.overall.avg_us, 1),
                  TP::Fmt(r.short_flows.avg_us, 1),
                  TP::Fmt(r.short_flows.p90_us, 1),
                  TP::Fmt(r.short_flows.p99_us, 1),
                  TP::Fmt(r.large_flows.avg_us, 1),
                  std::to_string(r.timeouts)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: after the shift, ECN#'s stale (smaller-RTT)\n"
      "thresholds mark too early and give up throughput on large flows;\n"
      "re-estimation recovers most of it while keeping the short-flow "
      "tail.\n");
  return 0;
}

// Beyond the paper: resilience to bottleneck link flaps.
//
// Scripts three 2 ms outages of the dumbbell's bottleneck link and compares
// DCTCP vs ECN#, with the switch either dropping the queued backlog at
// link-down (shallow-buffer behaviour: retransmission timeouts) or holding
// it for drain at link-up (lossless pause: a latency spike instead).
// Because both AQMs keep the standing queue short, each outage is
// immediately preceded by a synchronized incast burst — the worst case of a
// flap catching a full queue. The timeline is identical in every job; no
// jitter, so down/up ordering is guaranteed.
#include <cstdio>

#include "bench_common.h"
#include "dynamics/scenario.h"

namespace {

using namespace ecnsharp;

ScenarioScript FlapScript(bool drop_queued) {
  ScenarioScript script;
  script.seed = 7;
  // A 16 x 30 KB burst 300 us before each outage guarantees a backlog at
  // link-down time.
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(30) - Time::FromMicroseconds(300);
  burst.flows = 16;
  burst.bytes = 30000;
  burst.repeat = 3;
  burst.period = Time::Milliseconds(50);
  script.actions.push_back(burst);

  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.target = -1;  // bottleneck
  down.at = Time::Milliseconds(30);
  down.drop_queued = drop_queued;
  down.repeat = 3;
  down.period = Time::Milliseconds(50);
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(32);
  script.actions.push_back(up);
  return script;
}

}  // namespace

int main() {
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner("Bottleneck link flaps: 3 x 2ms outages, drop vs drain");
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  const Time base_rtt = Time::FromMicroseconds(70);
  const DataRate rate = DataRate::GigabitsPerSecond(10);
  const std::vector<Scheme> schemes = {Scheme::kDctcpRedTail,
                                       Scheme::kEcnSharp};

  std::vector<runner::JobSpec> specs;
  for (const bool drop_queued : {true, false}) {
    for (const Scheme scheme : schemes) {
      DumbbellExperimentConfig config;
      config.scheme = scheme;
      config.params = ParamsForVariation(3.0, base_rtt, rate);
      // High load keeps a standing queue, so an outage has a backlog to
      // drop or drain.
      config.load = 0.8;
      config.flows = flows;
      config.rtt_variation = 3.0;
      config.base_rtt = base_rtt;
      config.seed = seed;
      config.scenario = FlapScript(drop_queued);
      specs.push_back({std::string(SchemeName(scheme)) +
                           (drop_queued ? "/drop" : "/drain"),
                       config});
    }
  }
  const std::vector<runner::JobResult> sweep =
      runner::RunSweep("dyn_link_flap", specs);

  TP table({"variant", "overall avg(us)", "short p99(us)", "large avg(us)",
            "timeouts", "purged", "link-down drops"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentResult r = runner::FctResult(sweep[i]);
    table.AddRow({specs[i].name, TP::Fmt(r.overall.avg_us, 1),
                  TP::Fmt(r.short_flows.p99_us, 1),
                  TP::Fmt(r.large_flows.avg_us, 1),
                  std::to_string(r.timeouts),
                  std::to_string(r.bottleneck.purged),
                  std::to_string(r.link_down_drops)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: dropping the backlog converts each outage into\n"
      "timeouts (hurting the short-flow tail); draining trades them for a\n"
      "one-RTT latency spike. The AQM scheme matters less than the drop\n"
      "policy during the outage itself.\n");
  return 0;
}

// Extending the library: write your own AQM policy and benchmark it
// against ECN# with the standard harness.
//
// The example policy ("HysteresisMark") marks every packet once the sojourn
// time exceeds a high watermark and keeps marking until it falls below a
// low watermark — a two-threshold relay controller. It is intentionally
// simple; the point is the integration surface:
//
//   1. derive from AqmPolicy and implement OnDequeue (sojourn-time signal)
//      and/or AllowEnqueue (queue-length signal);
//   2. wrap it in a FifoQueueDisc (or a scheduler class);
//   3. hand it to a topology and reuse the workload/stats machinery.
#include <cstdio>
#include <memory>

#include "harness/experiment.h"
#include "harness/table.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "stats/fct_collector.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"
#include "workload/empirical_cdf.h"
#include "workload/traffic_generator.h"

namespace {

using namespace ecnsharp;

class HysteresisMarkAqm : public AqmPolicy {
 public:
  HysteresisMarkAqm(Time low_watermark, Time high_watermark)
      : low_(low_watermark), high_(high_watermark) {}

  void OnDequeue(Packet& pkt, const QueueSnapshot&, Time,
                 Time sojourn) override {
    if (sojourn > high_) marking_ = true;
    if (sojourn < low_) marking_ = false;
    if (marking_) pkt.MarkCe();
  }

  std::string name() const override { return "hysteresis-mark"; }

 private:
  Time low_;
  Time high_;
  bool marking_ = false;
};

// Runs the web-search workload over a dumbbell whose bottleneck disc
// `make_disc` builds.
ExperimentResult RunWithDisc(const DiscFactory& make_disc) {
  Simulator sim;
  DumbbellConfig topo_config;
  Dumbbell topo(sim, topo_config, make_disc);
  topo.SetSenderExtraDelays(
      RttExtraQuantiles(topo.sender_count(), Time::FromMicroseconds(140)));

  FctCollector collector;
  TrafficConfig traffic;
  traffic.load = 0.6;
  traffic.flow_count = 500;
  const std::uint32_t receiver = topo.receiver_address();
  TrafficGenerator generator(
      sim, WebSearchWorkload(), traffic,
      [&topo, receiver](Rng& rng) {
        return std::make_pair(
            &topo.sender_stack(rng.UniformInt(topo.sender_count())),
            receiver);
      },
      [&collector](const FlowRecord& r) { collector.Record(r); }, Rng(42));
  generator.Start();
  while (!generator.AllDone() && sim.Now() < Time::Seconds(60)) {
    sim.RunFor(Time::Milliseconds(10));
  }
  ExperimentResult result;
  result.overall = collector.Overall();
  result.short_flows = collector.ShortFlows();
  result.large_flows = collector.LargeFlows();
  return result;
}

}  // namespace

int main() {
  PrintBanner("Custom AQM example: hysteresis relay vs ECN#");

  const SchemeParams params;  // paper testbed defaults
  TablePrinter table(
      {"policy", "overall avg", "short avg", "short p99", "large avg"});
  const auto add = [&table](const char* name, const ExperimentResult& r) {
    table.AddRow({name, TablePrinter::FmtUs(r.overall.avg_us),
                  TablePrinter::FmtUs(r.short_flows.avg_us),
                  TablePrinter::FmtUs(r.short_flows.p99_us),
                  TablePrinter::FmtUs(r.large_flows.avg_us)});
  };

  add("hysteresis 60/200us", RunWithDisc([&params](BufferPolicy*) {
        return std::make_unique<FifoQueueDisc>(
            params.buffer_bytes,
            std::make_unique<HysteresisMarkAqm>(Time::FromMicroseconds(60),
                                                Time::FromMicroseconds(200)));
      }));
  add("ECN# (paper config)",
      RunWithDisc(FifoDiscFactory(Scheme::kEcnSharp, params)));
  table.Print();

  std::printf(
      "\nThe relay controller is competitive at this load but has no burst "
      "tolerance\nstory (try it in examples/incast_burst's setup). The "
      "point: a new policy is\n~20 lines, and every workload/topology/"
      "metric in the library applies to it.\n");
  return 0;
}

// Figure 13: ECN# with packet schedulers. The bottleneck runs DWRR with 3
// queues weighted 2:1:1, each with its own sojourn-time AQM instance.
// Three long-lived flows start staggered into the three classes; short
// probe flows measure queueing across classes.
//
// Paper headlines: (a) ECN# strictly preserves the scheduling policy —
// goodput staircase ~9.6 -> 6.42/3.18 -> 4.82/2.40/2.40 Gbps; (b) ECN#
// achieves ~19.6% lower average short-flow FCT than TCN because it also
// drains the persistent queues inside each class.
#include <cstdio>
#include <memory>
#include <vector>

#include "aqm/tcn.h"
#include "bench_common.h"
#include "sched/dwrr_queue_disc.h"
#include "sim/simulator.h"
#include "stats/fct_collector.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

enum class SchedScheme { kEcnSharp, kTcn };

struct DwrrRunResult {
  // goodput_gbps[phase][flow], phases sampled at 0.5s/1.5s/2.5s.
  std::vector<std::vector<double>> goodput_gbps;
  FctSummary short_fct;
};

DwrrRunResult RunDwrrExperiment(SchedScheme scheme, std::size_t probe_flows,
                                std::uint64_t seed) {
  Simulator sim;
  const SchemeParams params = SimulationSchemeParams();

  DumbbellConfig topo_config;
  topo_config.senders = 7;
  topo_config.base_rtt = Time::FromMicroseconds(80);
  Dumbbell topo(sim, topo_config, [&params, scheme](BufferPolicy*) {
    std::vector<DwrrQueueDisc::ClassConfig> classes;
    const std::uint32_t weights[] = {2, 1, 1};
    for (const std::uint32_t w : weights) {
      std::unique_ptr<AqmPolicy> aqm;
      if (scheme == SchedScheme::kEcnSharp) {
        aqm = std::make_unique<EcnSharpAqm>(params.ecn_sharp);
      } else {
        aqm = std::make_unique<TcnAqm>(params.tcn_threshold);
      }
      classes.push_back({w, std::move(aqm)});
    }
    return std::make_unique<DwrrQueueDisc>(params.buffer_bytes,
                                           std::move(classes));
  });
  topo.SetSenderExtraDelays(
      RttExtraQuantiles(7, Time::FromMicroseconds(160)));
  const std::uint32_t receiver = topo.receiver_address();

  // Three long-lived flows, one per class, staggered by 1 s.
  std::vector<TcpSender*> long_flows(3, nullptr);
  for (std::uint8_t i = 0; i < 3; ++i) {
    sim.ScheduleAt(Time::Seconds(i), [&topo, &long_flows, i, receiver] {
      long_flows[i] = &topo.sender_stack(i).StartFlow(
          receiver, 1ull << 42, nullptr, /*traffic_class=*/i);
    });
  }

  // Short probe flows (3-60 KB) at low load, random class, from the other
  // senders.
  FctCollector probes;
  Rng rng(seed);
  Time at = Time::Milliseconds(100);
  for (std::size_t p = 0; p < probe_flows; ++p) {
    at += Time::FromSeconds(rng.Exponential(2.9 / probe_flows));
    const std::size_t sender = 3 + rng.UniformInt(4);
    const auto cls = static_cast<std::uint8_t>(rng.UniformInt(3));
    const std::uint64_t size = 3000 + rng.UniformInt(57001);
    sim.ScheduleAt(at, [&topo, &probes, sender, cls, size, receiver] {
      topo.sender_stack(sender).StartFlow(
          receiver, size,
          [&probes](const FlowRecord& record) { probes.Record(record); },
          cls);
    });
  }

  // Goodput sampling: bytes acked per long flow over each phase's final
  // 0.8 s (skipping the 0.2 s after each phase change for convergence).
  DwrrRunResult result;
  result.goodput_gbps.assign(3, std::vector<double>(3, 0.0));
  std::vector<std::vector<std::uint64_t>> acked_at(4,
                                                   std::vector<std::uint64_t>(
                                                       3, 0));
  for (int phase = 0; phase < 3; ++phase) {
    sim.RunUntil(Time::Seconds(phase) + Time::Milliseconds(200));
    for (int f = 0; f < 3; ++f) {
      acked_at[phase][f] =
          long_flows[f] != nullptr ? long_flows[f]->bytes_acked() : 0;
    }
    sim.RunUntil(Time::Seconds(phase + 1));
    for (int f = 0; f < 3; ++f) {
      const std::uint64_t end =
          long_flows[f] != nullptr ? long_flows[f]->bytes_acked() : 0;
      result.goodput_gbps[phase][f] =
          static_cast<double>(end - acked_at[phase][f]) * 8.0 / 0.8 * 1e-9;
    }
  }
  sim.RunUntil(Time::Seconds(4));
  result.short_fct = probes.Overall();
  return result;
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner("Fig. 13: ECN# with a DWRR packet scheduler (weights 2:1:1)");
  const std::size_t probe_flows = BenchFlowCount(300, 1500);
  const std::uint64_t seed = BenchSeed();
  PrintScale(probe_flows, seed);

  // Both scheme runs are independent simulations; fan them out through the
  // runner (ECNSHARP_JOBS workers) and read back in submission order.
  const SchedScheme variants[] = {SchedScheme::kEcnSharp, SchedScheme::kTcn};
  ecnsharp::runner::SweepOptions options;
  options.label = "fig13_dwrr_scheduler";
  const std::vector<DwrrRunResult> runs = ecnsharp::runner::ParallelMap(
      2,
      [&](std::size_t i) {
        return RunDwrrExperiment(variants[i], probe_flows, seed);
      },
      options);
  const DwrrRunResult& sharp = runs[0];
  const DwrrRunResult& tcn = runs[1];

  std::printf("\n(a) Long-flow goodput under ECN# (Gbps; flows start at "
              "t=0s,1s,2s)\n");
  TP goodput({"window", "flow1 (w=2)", "flow2 (w=1)", "flow3 (w=1)"});
  const char* windows[] = {"0-1s", "1-2s", "2-3s"};
  for (int phase = 0; phase < 3; ++phase) {
    goodput.AddRow({windows[phase],
                    TP::Fmt(sharp.goodput_gbps[phase][0], 2),
                    TP::Fmt(sharp.goodput_gbps[phase][1], 2),
                    TP::Fmt(sharp.goodput_gbps[phase][2], 2)});
  }
  goodput.Print();

  std::printf("\n(b) Short probe flow FCT across classes\n");
  TP fct({"scheme", "avg FCT(us)", "p99 FCT(us)", "flows"});
  fct.AddRow({"TCN", TP::Fmt(tcn.short_fct.avg_us, 0),
              TP::Fmt(tcn.short_fct.p99_us, 0),
              std::to_string(tcn.short_fct.count)});
  fct.AddRow({"ECN#", TP::Fmt(sharp.short_fct.avg_us, 0),
              TP::Fmt(sharp.short_fct.p99_us, 0),
              std::to_string(sharp.short_fct.count)});
  fct.Print();
  std::printf("ECN#/TCN avg FCT: %s\n",
              ecnsharp::bench::Norm(sharp.short_fct.avg_us,
                                    tcn.short_fct.avg_us).c_str());

  std::printf(
      "\nExpected shape vs paper: goodput staircase ~9.6 -> 6.4/3.2 -> "
      "4.8/2.4/2.4 Gbps\n(2:1:1 strictly preserved); ECN# short-flow FCT "
      "below TCN's (paper: -19.6%%).\n");
  return 0;
}

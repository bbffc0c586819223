// Ablation: sojourn-time ECN# vs queue-length marking under schedulers.
//
// Why does ECN# use sojourn time (§3.2)? Under a multi-queue scheduler a
// class's drain rate depends on which other classes are active, so a static
// queue-LENGTH threshold is wrong whenever the active set changes. MQ-ECN
// fixes that with dynamic per-class thresholds; per-class sojourn AQMs
// (TCN/ECN#) sidestep it entirely. This bench runs the Fig. 13 DWRR setup
// (weights 2:1:1, staggered long flows, short probes) under three per-class
// marking designs and also under strict priority.
#include <cstdio>
#include <memory>
#include <vector>

#include "aqm/dctcp_red.h"
#include "bench_common.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/sp_queue_disc.h"
#include "sim/simulator.h"
#include "stats/fct_collector.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

enum class Marking { kEcnSharpSojourn, kStaticQueueLength, kMqEcn };

const char* MarkingName(Marking marking) {
  switch (marking) {
    case Marking::kEcnSharpSojourn:
      return "ECN# (sojourn, per class)";
    case Marking::kStaticQueueLength:
      return "static K per class";
    case Marking::kMqEcn:
      return "MQ-ECN (dynamic K)";
  }
  return "?";
}

struct RunResult {
  FctSummary short_fct;
  double goodput_share_flow1 = 0.0;  // of the 3-flow phase; ~0.5 ideal
};

RunResult RunScheduled(Marking marking, bool strict_priority,
                       std::size_t probe_flows, std::uint64_t seed) {
  Simulator sim;
  const SchemeParams params = SimulationSchemeParams();
  // Equivalent queue-length threshold for the ECN# ins_target at 10G.
  const std::uint64_t k_bytes = IdealMarkingThresholdBytes(
      1.0, DataRate::GigabitsPerSecond(10), params.ecn_sharp.ins_target);

  std::unique_ptr<QueueDisc> disc;
  const std::uint32_t weights[] = {2, 1, 1};
  if (strict_priority) {
    std::vector<SpQueueDisc::ClassConfig> classes;
    for (int i = 0; i < 3; ++i) {
      classes.push_back({std::make_unique<EcnSharpAqm>(params.ecn_sharp)});
    }
    disc = std::make_unique<SpQueueDisc>(params.buffer_bytes,
                                         std::move(classes));
  } else {
    std::vector<DwrrQueueDisc::ClassConfig> classes;
    for (const std::uint32_t w : weights) {
      std::unique_ptr<AqmPolicy> aqm;
      if (marking == Marking::kEcnSharpSojourn) {
        aqm = std::make_unique<EcnSharpAqm>(params.ecn_sharp);
      } else if (marking == Marking::kStaticQueueLength) {
        // Naive: each class gets the full-link threshold.
        aqm = std::make_unique<DctcpRedAqm>(k_bytes);
      }
      classes.push_back({w, std::move(aqm)});
    }
    auto dwrr = std::make_unique<DwrrQueueDisc>(params.buffer_bytes,
                                                std::move(classes));
    if (marking == Marking::kMqEcn) dwrr->EnableMqEcn(k_bytes);
    disc = std::move(dwrr);
  }

  DumbbellConfig topo_config;
  topo_config.senders = 7;
  topo_config.base_rtt = Time::FromMicroseconds(80);
  Dumbbell topo(sim, topo_config,
                [&disc](BufferPolicy*) { return std::move(disc); });
  topo.SetSenderExtraDelays(RttExtraQuantiles(7, Time::FromMicroseconds(160),
                                              RttProfile::kLeafSpine));
  const std::uint32_t receiver = topo.receiver_address();

  std::vector<TcpSender*> long_flows(3, nullptr);
  for (std::uint8_t i = 0; i < 3; ++i) {
    // Under strict priority, bulk traffic lives in the lowest class (the
    // usual deployment); under DWRR, one elephant per class as in Fig. 13.
    const std::uint8_t cls = strict_priority ? 2 : i;
    sim.ScheduleAt(Time::Milliseconds(250) * i,
                   [&topo, &long_flows, i, cls, receiver] {
                     long_flows[i] = &topo.sender_stack(i).StartFlow(
                         receiver, 1ull << 42, nullptr, cls);
                   });
  }

  FctCollector probes;
  Rng rng(seed);
  Time at = Time::Milliseconds(20);
  for (std::size_t p = 0; p < probe_flows; ++p) {
    at += Time::FromSeconds(rng.Exponential(0.9 / probe_flows));
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

  sim.RunUntil(Time::Milliseconds(600));
  std::uint64_t start1 =
      long_flows[0] != nullptr ? long_flows[0]->bytes_acked() : 0;
  std::uint64_t total_start = 0;
  for (auto* f : long_flows) total_start += f ? f->bytes_acked() : 0;
  sim.RunUntil(Time::Milliseconds(1100));
  std::uint64_t delta1 =
      (long_flows[0] ? long_flows[0]->bytes_acked() : 0) - start1;
  std::uint64_t total_delta = 0;
  for (auto* f : long_flows) total_delta += f ? f->bytes_acked() : 0;
  total_delta -= total_start;
  sim.RunUntil(Time::Seconds(2));

  RunResult result;
  result.short_fct = probes.Overall();
  result.goodput_share_flow1 =
      total_delta == 0 ? 0.0
                       : static_cast<double>(delta1) /
                             static_cast<double>(total_delta);
  return result;
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner(
      "Ablation: marking signal under packet schedulers (DWRR 2:1:1)");
  const std::size_t probe_flows = BenchFlowCount(300, 1500);
  const std::uint64_t seed = BenchSeed();
  PrintScale(probe_flows, seed);

  // Three DWRR marking variants plus the strict-priority run: four
  // independent simulations fanned out through the runner.
  const Marking markings[] = {Marking::kStaticQueueLength, Marking::kMqEcn,
                              Marking::kEcnSharpSojourn};
  runner::SweepOptions options;
  options.label = "ablation_schedulers";
  const std::vector<RunResult> runs = runner::ParallelMap(
      4,
      [&](std::size_t i) {
        if (i < 3) {
          return RunScheduled(markings[i], /*strict_priority=*/false,
                              probe_flows, seed);
        }
        return RunScheduled(Marking::kEcnSharpSojourn,
                            /*strict_priority=*/true, probe_flows, seed);
      },
      options);

  TP table({"per-class marking", "short avg(us)", "short p99(us)",
            "flow1 share (ideal 0.50)"});
  for (std::size_t i = 0; i < 3; ++i) {
    const RunResult& r = runs[i];
    table.AddRow({MarkingName(markings[i]), TP::Fmt(r.short_fct.avg_us, 0),
                  TP::Fmt(r.short_fct.p99_us, 0),
                  TP::Fmt(r.goodput_share_flow1, 3)});
  }
  table.Print();

  const RunResult& sp = runs[3];
  std::printf(
      "\nECN# under strict priority (elephants in the lowest class): short "
      "probe\navg %sus, p99 %sus — the same per-class sojourn config works "
      "unchanged\nunder a completely different scheduler.\n",
      TP::Fmt(sp.short_fct.avg_us, 0).c_str(),
      TP::Fmt(sp.short_fct.p99_us, 0).c_str());

  std::printf(
      "\nExpected: static per-class queue-length thresholds over-buffer "
      "(worst short\nFCT); MQ-ECN's dynamic K and ECN#'s per-class sojourn "
      "marking both track the\nschedule, with ECN# additionally draining "
      "persistent queues.\n");
  return 0;
}

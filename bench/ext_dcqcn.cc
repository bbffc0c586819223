// Extension (§3.5): ECN# with probabilistic instantaneous marking under
// DCQCN (rate-based RDMA congestion control).
//
// DCQCN needs Kmin/Kmax-style probabilistic marking for convergence. The
// paper sketches how ECN# extends: replace the cut-off instantaneous rule
// with the probabilistic ramp and keep persistent marking unchanged. This
// bench runs N 40G RDMA senders into a 10G port under (a) the plain ramp
// (DCQCN's standard RED-like marking, sojourn thresholds) and (b) the ramp
// + ECN# persistent marking, reporting steady-state queue and goodput.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/ecn_sharp_prob.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"
#include "transport/dcqcn.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

struct Result {
  double avg_queue_pkts = 0.0;
  double goodput_gbps = 0.0;
  std::uint64_t drops = 0;
};

Result RunOne(bool persistent_marking, std::size_t senders,
              std::uint64_t seed) {
  Simulator sim;

  EcnSharpProbConfig aqm_config;
  aqm_config.t_min = Time::FromMicroseconds(40);
  aqm_config.t_max = Time::FromMicroseconds(200);
  aqm_config.p_max = 0.1;
  aqm_config.pst_target = Time::FromMicroseconds(10);
  aqm_config.pst_interval = Time::FromMicroseconds(240);
  if (!persistent_marking) aqm_config.pst_target = Time::Max() / 4;

  DumbbellConfig topo_config;
  topo_config.senders = senders;
  topo_config.base_rtt = Time::FromMicroseconds(80);
  // RDMA hosts with 40G NICs into the 10G fabric port.
  topo_config.rate = DataRate::GigabitsPerSecond(10);
  // RoCE fabrics are lossless (PFC); emulate that with a buffer deep
  // enough that ECN marking is the only congestion signal.
  Dumbbell topo(sim, topo_config, [&aqm_config, seed](BufferPolicy*) {
    return std::make_unique<FifoQueueDisc>(
        8ull * 1024 * 1024,
        std::make_unique<EcnSharpProbabilisticAqm>(aqm_config, seed));
  });
  topo.SetSenderExtraDelays(RttExtraQuantiles(
      senders, Time::FromMicroseconds(160), RttProfile::kLeafSpine));

  DcqcnConfig dcqcn;
  dcqcn.line_rate = DataRate::GigabitsPerSecond(10);
  // Recovery clocks scaled to the 10G/80-240us regime: increase events a
  // few RTTs apart sustain utilization without destabilizing high fan-in.
  dcqcn.increase_bytes = 64'000;
  dcqcn.rate_ai = DataRate::MegabitsPerSecond(100);

  // DCQCN stacks replace the default TCP protocol handlers.
  std::vector<std::unique_ptr<DcqcnStack>> stacks;
  for (std::size_t i = 0; i < senders; ++i) {
    stacks.push_back(
        std::make_unique<DcqcnStack>(topo.sender_host(i), dcqcn));
  }
  auto receiver_stack =
      std::make_unique<DcqcnStack>(topo.receiver_host(), dcqcn);

  for (std::size_t i = 0; i < senders; ++i) {
    // Staggered starts (PFC would otherwise absorb the synchronized
    // line-rate onset).
    sim.ScheduleAt(Time::Milliseconds(1) * static_cast<std::int64_t>(i),
                   [&stacks, &topo, i] {
                     stacks[i]->StartFlow(topo.receiver_address(),
                                          1ull << 40, nullptr);
                   });
  }

  // Warm up, then measure queue and delivered bytes over 100 ms.
  sim.RunUntil(Time::Milliseconds(50));
  const std::uint64_t rx_before =
      topo.bottleneck_port().counters().tx_bytes;
  double queue_sum = 0.0;
  int samples = 0;
  while (sim.Now() < Time::Milliseconds(150)) {
    sim.RunFor(Time::Microseconds(100));
    queue_sum += topo.bottleneck_port().queue_disc().Snapshot().packets;
    ++samples;
  }
  const std::uint64_t rx_after = topo.bottleneck_port().counters().tx_bytes;

  Result result;
  result.avg_queue_pkts = queue_sum / samples;
  result.goodput_gbps =
      static_cast<double>(rx_after - rx_before) * 8.0 / 0.1 * 1e-9;
  result.drops =
      topo.bottleneck_port().queue_disc().stats().dropped_overflow;
  return result;
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner("Extension: ECN# probabilistic marking under DCQCN (§3.5)");
  const std::uint64_t seed = BenchSeed();
  std::printf("seed=%llu  (N x 10G-paced RDMA flows into one 10G port)\n",
              static_cast<unsigned long long>(seed));

  const std::vector<std::size_t> fanins = {2, 4, 8, 16};
  runner::SweepOptions options;
  options.label = "ext_dcqcn";
  const std::vector<Result> runs = runner::ParallelMap(
      fanins.size() * 2,
      [&](std::size_t i) {
        return RunOne(/*persistent_marking=*/i % 2 == 1, fanins[i / 2],
                      seed);
      },
      options);

  TP table({"senders", "ramp only: q(pkts)", "Gbps", "drops",
            "ramp+persistent: q(pkts)", "Gbps", "drops"});
  for (std::size_t i = 0; i < fanins.size(); ++i) {
    const Result& ramp = runs[2 * i];
    const Result& full = runs[2 * i + 1];
    table.AddRow({std::to_string(fanins[i]), TP::Fmt(ramp.avg_queue_pkts, 1),
                  TP::Fmt(ramp.goodput_gbps, 2), std::to_string(ramp.drops),
                  TP::Fmt(full.avg_queue_pkts, 1),
                  TP::Fmt(full.goodput_gbps, 2),
                  std::to_string(full.drops)});
  }
  table.Print();
  std::printf(
      "\nExpected: adding ECN#'s persistent marking lowers the standing "
      "queue at every\nfan-in without giving up goodput — the probabilistic "
      "extension behaves like\nthe base design.\n");
  return 0;
}

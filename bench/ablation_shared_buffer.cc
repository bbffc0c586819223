// Ablation: static per-port buffer split vs Dynamic-Threshold shared
// buffer under incast.
//
// The fig10/fig11 experiments use a static 600-packet egress buffer. Real
// chips share one pool across ports (Choudhury-Hahne DT): a single hot port
// can borrow far more than its static share, moving the incast loss point
// out. This bench reruns the fanout sweep with the same TOTAL buffer
// either statically split across 12 ports or shared with DT alpha=1.
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "buffer/policies.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "stats/fct_collector.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

struct Result {
  std::uint64_t drops = 0;
  double query_p99_us = 0.0;
};

Result RunOne(bool shared, std::size_t fanout, std::uint64_t seed) {
  Simulator sim;
  // The fig10/fig11 incast's shape, parameters and initial window.
  const DumbbellExperimentConfig incast = IncastDumbbell(seed);
  const SchemeParams params = incast.params;
  // Total chip buffer: 12 ports x 600 packets.
  const std::uint64_t total = 12ull * params.buffer_bytes;
  auto pool = std::make_unique<DynamicThresholdPolicy>(total, /*alpha=*/1.0);

  DumbbellConfig topo_config;
  topo_config.senders = incast.senders;
  topo_config.base_rtt = incast.base_rtt;
  topo_config.buffer_bytes = params.buffer_bytes;
  topo_config.tcp = incast.tcp;
  Dumbbell topo(sim, topo_config,
                [&](BufferPolicy*) -> std::unique_ptr<QueueDisc> {
                  return std::make_unique<FifoQueueDisc>(
                      params.buffer_bytes, MakeAqm(Scheme::kEcnSharp, params),
                      shared ? pool.get() : nullptr);
                });
  topo.SetSenderExtraDelays(RttExtraQuantiles(16, Time::FromMicroseconds(160),
                                              RttProfile::kLeafSpine));
  const std::uint32_t receiver = topo.receiver_address();

  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t sender = i % 16;
    sim.ScheduleAt(Time::Milliseconds(1) * static_cast<std::int64_t>(i + 1),
                   [&topo, sender, receiver] {
                     topo.sender_stack(sender).StartFlow(receiver, 1ull << 40,
                                                         nullptr);
                   });
  }

  FctCollector queries;
  std::size_t done = 0;
  Rng rng(seed);
  std::uint64_t drops_before = 0;
  const Time burst = Time::Milliseconds(150);
  sim.ScheduleAt(burst - Time::Nanoseconds(1), [&topo, &drops_before] {
    drops_before =
        topo.bottleneck_port().queue_disc().stats().dropped_overflow;
  });
  for (std::size_t q = 0; q < fanout; ++q) {
    const std::size_t sender = q % 16;
    const std::uint64_t size = 3000 + rng.UniformInt(57001);
    sim.ScheduleAt(burst, [&topo, &queries, &done, sender, size, receiver] {
      topo.sender_stack(sender).StartFlow(
          receiver, size, [&queries, &done](const FlowRecord& record) {
            queries.Record(record);
            ++done;
          });
    });
  }
  while (done < fanout && sim.Now() < Time::Seconds(20)) {
    sim.RunFor(Time::Milliseconds(10));
  }

  Result result;
  result.drops =
      topo.bottleneck_port().queue_disc().stats().dropped_overflow -
      drops_before;
  result.query_p99_us = queries.Overall().p99_us;
  return result;
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner("Ablation: static per-port buffer vs shared-buffer DT (ECN#)");
  const std::uint64_t seed = BenchSeed();
  std::printf("seed=%llu\n", static_cast<unsigned long long>(seed));

  const std::vector<std::size_t> fanouts = {100, 150, 200, 250};
  runner::SweepOptions options;
  options.label = "ablation_shared_buffer";
  const std::vector<Result> runs = runner::ParallelMap(
      fanouts.size() * 2,
      [&](std::size_t i) {
        return RunOne(/*shared=*/i % 2 == 1, fanouts[i / 2], seed);
      },
      options);

  TP table({"fanout", "static: drops", "static: q p99(us)", "shared: drops",
            "shared: q p99(us)"});
  for (std::size_t i = 0; i < fanouts.size(); ++i) {
    const Result& st = runs[2 * i];
    const Result& sh = runs[2 * i + 1];
    table.AddRow({std::to_string(fanouts[i]), std::to_string(st.drops),
                  TP::Fmt(st.query_p99_us, 0), std::to_string(sh.drops),
                  TP::Fmt(sh.query_p99_us, 0)});
  }
  table.Print();
  std::printf(
      "\nExpected: with the same total buffer, DT sharing lets the hot port "
      "absorb\nfanouts that overflow a static split — ECN#'s burst "
      "tolerance extends further\non shared-buffer hardware.\n");
  return 0;
}

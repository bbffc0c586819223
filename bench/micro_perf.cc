// Microbenchmarks (google-benchmark): per-packet AQM decision cost, the
// emulated Tofino pipeline, the event engine, queue discs, the sketch tap
// and shared-buffer admission.
//
// These quantify the §4 claims analog: ECN#'s per-packet work is a handful
// of compares and one or two register updates — cheap enough for line rate
// (on the real Tofino it is fixed-function pipeline stages; here we show
// the software model is tens of nanoseconds per packet).
//
// They are local diagnostics with no gate: a speed-up counts only when
// tools/perf_gate.py sees it end to end on perfbench's workloads.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "aqm/codel.h"
#include "aqm/dctcp_red.h"
#include "aqm/red.h"
#include "aqm/tcn.h"
#include "buffer/policies.h"
#include "core/ecn_sharp.h"
#include "harness/schemes.h"
#include "net/packet_pool.h"
#include "sched/dwrr_queue_disc.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "sketch/sketch_config.h"
#include "sketch/telemetry.h"
#include "tofino/ecn_sharp_pipeline.h"

namespace ecnsharp {
namespace {

Packet MakeEctPacket() {
  Packet pkt;
  pkt.size_bytes = 1500;
  pkt.ecn = EcnCodepoint::kEct0;
  return pkt;
}

void BM_DctcpRedDecision(benchmark::State& state) {
  DctcpRedAqm aqm(250'000);
  Packet pkt = MakeEctPacket();
  const QueueSnapshot snap{100, 150'000};
  Time now = Time::Zero();
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    pkt.ecn = EcnCodepoint::kEct0;
    benchmark::DoNotOptimize(aqm.AllowEnqueue(pkt, snap, now));
  }
}
BENCHMARK(BM_DctcpRedDecision);

void BM_RedDecision(benchmark::State& state) {
  RedConfig config;
  config.min_th_bytes = 50'000;
  config.max_th_bytes = 200'000;
  RedAqm aqm(config, 1);
  Packet pkt = MakeEctPacket();
  const QueueSnapshot snap{100, 120'000};
  Time now = Time::Zero();
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    pkt.ecn = EcnCodepoint::kEct0;
    benchmark::DoNotOptimize(aqm.AllowEnqueue(pkt, snap, now));
  }
}
BENCHMARK(BM_RedDecision);

void BM_CodelDecision(benchmark::State& state) {
  CodelAqm aqm(CodelConfig{});
  Packet pkt = MakeEctPacket();
  const QueueSnapshot snap{100, 150'000};
  Time now = Time::Zero();
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.OnDequeue(pkt, snap, now, Time::FromMicroseconds(50));
    benchmark::DoNotOptimize(pkt.ecn);
  }
}
BENCHMARK(BM_CodelDecision);

void BM_TcnDecision(benchmark::State& state) {
  TcnAqm aqm(Time::FromMicroseconds(150));
  Packet pkt = MakeEctPacket();
  const QueueSnapshot snap{100, 150'000};
  Time now = Time::Zero();
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.OnDequeue(pkt, snap, now, Time::FromMicroseconds(120));
    benchmark::DoNotOptimize(pkt.ecn);
  }
}
BENCHMARK(BM_TcnDecision);

void BM_EcnSharpDecision(benchmark::State& state) {
  EcnSharpAqm aqm(EcnSharpConfig{});
  Packet pkt = MakeEctPacket();
  const QueueSnapshot snap{100, 150'000};
  Time now = Time::Zero();
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    pkt.ecn = EcnCodepoint::kEct0;
    aqm.OnDequeue(pkt, snap, now, Time::FromMicroseconds(120));
    benchmark::DoNotOptimize(pkt.ecn);
  }
}
BENCHMARK(BM_EcnSharpDecision);

void BM_TofinoPipelineDecision(benchmark::State& state) {
  TofinoPipelineConfig config;
  config.num_ports = 128;
  EcnSharpPipeline pipeline(config);
  std::uint64_t now_ns = 0;
  for (auto _ : state) {
    now_ns += 1200;
    benchmark::DoNotOptimize(
        pipeline.ProcessDequeue(now_ns % 128, now_ns - 120'000, now_ns));
  }
}
BENCHMARK(BM_TofinoPipelineDecision);

void BM_SimulatorScheduleExecute(benchmark::State& state) {
  // Cost of one schedule + dispatch round trip (the simulator's hot path).
  Simulator sim;
  std::uint64_t counter = 0;
  for (auto _ : state) {
    sim.Schedule(Time::Nanoseconds(1), [&counter] { ++counter; });
    sim.Run();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimulatorScheduleExecute);

// Events per iteration of the two churn cases below.
constexpr std::uint64_t kChurnEvents = 1 << 16;

// One member of a ring of self-rescheduling callbacks.
struct RingChurner {
  Simulator* sim;
  std::uint64_t* remaining;
  Time gap;

  void Fire() {
    if (*remaining == 0) return;
    --*remaining;
    sim->Schedule(gap, [this] { Fire(); });
  }
};

// A ring of 64 callbacks with staggered gaps: every event is one pop +
// dispatch + push against a pending set of 64, the fixed per-event cost
// every simulation pays.
void BM_EventRingChurn(benchmark::State& state) {
  constexpr int kRing = 64;
  Simulator sim;
  std::uint64_t remaining = 0;
  std::vector<RingChurner> ring;
  for (int i = 0; i < kRing; ++i) {
    ring.push_back({&sim, &remaining, Time::Nanoseconds(100 + i)});
  }
  for (auto _ : state) {
    remaining = kChurnEvents;
    for (int i = 0; i < kRing; ++i) {
      sim.Schedule(Time::Nanoseconds(i), [c = &ring[i]] { c->Fire(); });
    }
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_EventRingChurn);

// Every dispatched event cancels the far-future event armed by the one
// before and arms a new one, so the raw Simulator::Cancel bookkeeping is on
// the critical path. (This was the eager TCP RTO restart; Timer re-arms are
// now lazy and rarely cancel.)
struct CancelChurner {
  Simulator* sim;
  std::uint64_t remaining = 0;
  EventId pending{};

  void Fire() {
    sim->Cancel(pending);
    pending = sim->Schedule(Time::Milliseconds(10), [] {});
    if (remaining == 0) return;
    --remaining;
    sim->Schedule(Time::Nanoseconds(120), [this] { Fire(); });
  }
};

void BM_EventCancelChurn(benchmark::State& state) {
  Simulator sim;
  CancelChurner churner{&sim};
  for (auto _ : state) {
    churner.remaining = kChurnEvents;
    sim.Schedule(Time::Zero(), [&churner] { churner.Fire(); });
    sim.Run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_EventCancelChurn);

// A pooled full-size segment through a DCTCP-RED FIFO over a population of
// 256 sources x 64 destinations x 512 ports, so a sketch sees realistic key
// churn rather than one all-colliding flow. Arg 0 leaves the disc untapped;
// arg 1 taps it with sketch telemetry, so the difference is the per-packet
// cost of feeding the sketches, budgeted at <5% in docs/observability.md.
void BM_FifoEnqueueDequeue(benchmark::State& state) {
  SketchConfig sketch_config;
  sketch_config.enabled = true;
  SketchTelemetry telemetry(sketch_config);
  FifoQueueDisc disc(1ull << 30, std::make_unique<DctcpRedAqm>(250'000));
  if (state.range(0) != 0) {
    disc.AddTracer(telemetry.PortTap(telemetry.RegisterSite("bench")));
  }
  Time now = Time::Zero();
  std::uint64_t i = 0;
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    auto pkt = NewPacket();
    pkt->size_bytes = kFullPacketBytes;
    pkt->payload_bytes = kMaxSegmentSize;
    pkt->ecn = EcnCodepoint::kEct0;
    pkt->seq = i;
    pkt->flow = FlowKey{static_cast<std::uint32_t>(i % 256),
                        static_cast<std::uint32_t>(256 + i % 64),
                        static_cast<std::uint16_t>(40000 + i % 512), 80};
    ++i;
    disc.Enqueue(std::move(pkt), now);
    benchmark::DoNotOptimize(disc.Dequeue(now));
  }
}
BENCHMARK(BM_FifoEnqueueDequeue)->ArgName("sketch")->Arg(0)->Arg(1);

void BM_DwrrEnqueueDequeue(benchmark::State& state) {
  std::vector<DwrrQueueDisc::ClassConfig> classes;
  for (int i = 0; i < 3; ++i) {
    classes.push_back({static_cast<std::uint32_t>(i == 0 ? 2 : 1),
                       std::make_unique<EcnSharpAqm>(EcnSharpConfig{})});
  }
  DwrrQueueDisc disc(1ull << 30, std::move(classes));
  Time now = Time::Zero();
  std::uint8_t cls = 0;
  for (auto _ : state) {
    now += Time::Nanoseconds(1200);
    auto pkt = std::make_unique<Packet>(MakeEctPacket());
    pkt->traffic_class = cls;
    cls = static_cast<std::uint8_t>((cls + 1) % 3);
    disc.Enqueue(std::move(pkt), now);
    benchmark::DoNotOptimize(disc.Dequeue(now));
  }
}
BENCHMARK(BM_DwrrEnqueueDequeue);

// One TryReserve + Release pair through the Dynamic-Threshold policy over
// 32 queues, each holding a standing one-packet backlog so the DT limit
// arithmetic sees a non-trivial occupancy: the per-packet overhead a pooled
// enqueue/dequeue pays on top of the static-buffer path.
void BM_DtAdmission(benchmark::State& state) {
  constexpr std::size_t kQueues = 32;
  DynamicThresholdPolicy policy(/*total_bytes=*/64ull << 20, /*alpha=*/1.0);
  std::vector<std::size_t> queues;
  for (std::size_t q = 0; q < kQueues; ++q) {
    queues.push_back(policy.RegisterQueue(static_cast<std::uint8_t>(q % 8)));
    policy.TryReserve(queues.back(), kFullPacketBytes);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t q = queues[i++ % kQueues];
    benchmark::DoNotOptimize(policy.TryReserve(q, kFullPacketBytes));
    policy.Release(q, kFullPacketBytes);
  }
}
BENCHMARK(BM_DtAdmission);

}  // namespace
}  // namespace ecnsharp

BENCHMARK_MAIN();

// Core performance baseline: events/sec, packets/sec, and an end-to-end
// websearch figure, exported as BENCH_core.json.
//
// Unlike the figure benches (which measure *model* behaviour and are
// byte-stable across runs), this binary measures *simulator* speed so the
// repo has a perf trajectory to regress against. Every PR that touches the
// hot path should re-run it and compare against the committed
// BENCH_core.json. Methodology in docs/perf.md.
//
// Scale knobs (environment):
//   ECNSHARP_PERF_EVENTS   events per event-engine bench   (default 2000000)
//   ECNSHARP_PERF_PACKETS  packets through the queue path  (default 2000000)
//   ECNSHARP_PERF_FLOWS    flows in the end-to-end run     (default 2000)
//   ECNSHARP_PERF_FATTREE_FLOWS  flows in the k=16 fat-tree packet-path
//                                section                   (default 2000)
//   ECNSHARP_PERF_REPS     best-of reps for the micro loops (default 7)
//   ECNSHARP_BENCH_OUT     output path                     (default BENCH_core.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "aqm/dctcp_red.h"
#include "buffer/policies.h"
#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "runner/json_export.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"
#include "sketch/sketch_config.h"
#include "sketch/telemetry.h"

namespace ecnsharp {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::uint64_t items = 0;  // events or packets processed
  double seconds = 0.0;
  double rate() const { return seconds > 0.0 ? items / seconds : 0.0; }
};

Json ToJson(const Metric& m, const char* unit) {
  return Json::Object()
      .Set("items", Json::UInt(m.items))
      .Set("seconds", Json::Num(m.seconds))
      .Set(unit, Json::Num(m.rate()));
}

// ---------------------------------------------------------------------------
// Event engine: a ring of self-rescheduling callbacks. Every iteration is one
// pop + dispatch + push, the exact per-event cost every simulation pays.
// ---------------------------------------------------------------------------

struct Churner {
  Simulator& sim;
  std::uint64_t& remaining;
  Time gap;

  void Fire() {
    if (remaining == 0) return;
    --remaining;
    sim.Schedule(gap, [this] { Fire(); });
  }
};

Metric EventChurn(std::uint64_t events) {
  Simulator sim;
  std::uint64_t remaining = events;
  constexpr int kRing = 64;
  std::vector<std::unique_ptr<Churner>> ring;
  ring.reserve(kRing);
  for (int i = 0; i < kRing; ++i) {
    ring.push_back(std::make_unique<Churner>(
        Churner{sim, remaining, Time::Nanoseconds(100 + i)}));
    sim.Schedule(Time::Nanoseconds(i), [c = ring.back().get()] { c->Fire(); });
  }
  const auto start = Clock::now();
  sim.Run();
  return Metric{sim.events_executed(), SecondsSince(start)};
}

// ---------------------------------------------------------------------------
// Event engine under cancellation churn: every dispatched event re-arms a
// far-future event and cancels the previous one, so the raw
// Simulator::Cancel bookkeeping is on the critical path. (This was the
// eager TCP RTO restart; Timer re-arms are now lazy and rarely cancel.)
// ---------------------------------------------------------------------------

struct CancelChurner {
  Simulator& sim;
  std::uint64_t& remaining;
  EventId pending{};

  void Fire() {
    sim.Cancel(pending);
    pending = sim.Schedule(Time::Milliseconds(10), [] {});
    if (remaining == 0) return;
    --remaining;
    sim.Schedule(Time::Nanoseconds(120), [this] { Fire(); });
  }
};

Metric EventCancelChurn(std::uint64_t events) {
  Simulator sim;
  std::uint64_t remaining = events;
  CancelChurner churner{sim, remaining};
  sim.Schedule(Time::Zero(), [&churner] { churner.Fire(); });
  const auto start = Clock::now();
  sim.Run();
  return Metric{sim.events_executed(), SecondsSince(start)};
}

// ---------------------------------------------------------------------------
// Packet path: construct a full-size segment, enqueue into a DCTCP-RED FIFO,
// dequeue, destroy — the per-packet work of every switch hop.
// ---------------------------------------------------------------------------

Metric PacketPath(std::uint64_t packets) {
  FifoQueueDisc disc(1ull << 30, std::make_unique<DctcpRedAqm>(250'000));
  Time now = Time::Zero();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    now += Time::Nanoseconds(1200);
    auto pkt = NewPacket();
    pkt->size_bytes = kFullPacketBytes;
    pkt->payload_bytes = kMaxSegmentSize;
    pkt->ecn = EcnCodepoint::kEct0;
    pkt->seq = i;
    disc.Enqueue(std::move(pkt), now);
    disc.Dequeue(now);
  }
  return Metric{packets, SecondsSince(start)};
}

// Same loop with a sketch-telemetry tap on the disc: the delta against
// packet_path is the per-packet cost of feeding the sketches (budgeted at
// <5% in docs/observability.md, gated through tools/perf_gate).
Metric PacketPathSketch(std::uint64_t packets) {
  SketchConfig sketch_config;
  sketch_config.enabled = true;
  SketchTelemetry telemetry(sketch_config);
  const std::uint16_t site = telemetry.RegisterSite("bench");

  FifoQueueDisc disc(1ull << 30, std::make_unique<DctcpRedAqm>(250'000));
  disc.AddTracer(telemetry.PortTap(site));
  Time now = Time::Zero();
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    now += Time::Nanoseconds(1200);
    auto pkt = NewPacket();
    pkt->size_bytes = kFullPacketBytes;
    pkt->payload_bytes = kMaxSegmentSize;
    pkt->ecn = EcnCodepoint::kEct0;
    pkt->seq = i;
    // Spread traffic over a flow population so the sketches see realistic
    // key churn rather than one all-colliding flow.
    pkt->flow = FlowKey{static_cast<std::uint32_t>(i % 256),
                        static_cast<std::uint32_t>(256 + i % 64),
                        static_cast<std::uint16_t>(40000 + i % 512), 80};
    disc.Enqueue(std::move(pkt), now);
    disc.Dequeue(now);
  }
  return Metric{packets, SecondsSince(start)};
}

// ---------------------------------------------------------------------------
// Shared-buffer admission: one TryReserve + Release pair per iteration
// through the Dynamic-Threshold policy — the per-packet overhead a pooled
// enqueue/dequeue pays on top of the static-buffer path. A standing backlog
// of one packet per queue keeps the occupancy (and thus the DT limit
// arithmetic) non-trivial.
// ---------------------------------------------------------------------------

Metric BufferAdmission(std::uint64_t packets) {
  constexpr std::size_t kQueues = 32;
  DynamicThresholdPolicy policy(/*total_bytes=*/64ull << 20, /*alpha=*/1.0);
  std::vector<std::size_t> queues;
  queues.reserve(kQueues);
  for (std::size_t q = 0; q < kQueues; ++q) {
    queues.push_back(policy.RegisterQueue(static_cast<std::uint8_t>(q % 8)));
    policy.TryReserve(queues.back(), kFullPacketBytes);
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < packets; ++i) {
    const std::size_t q = queues[i % kQueues];
    policy.TryReserve(q, kFullPacketBytes);
    policy.Release(q, kFullPacketBytes);
  }
  return Metric{packets, SecondsSince(start)};
}

// ---------------------------------------------------------------------------
// End to end: the paper's websearch workload on the testbed dumbbell at 70%
// load — the configuration every FCT figure leans on hardest.
// ---------------------------------------------------------------------------

Json WebSearchAt70(std::size_t flows) {
  DumbbellExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.load = 0.7;
  config.flows = flows;
  config.seed = 1;
  const auto start = Clock::now();
  const ExperimentResult result = RunDumbbell(config);
  const double wall = SecondsSince(start);
  return Json::Object()
      .Set("flows", Json::UInt(flows))
      .Set("flows_completed", Json::UInt(result.flows_completed))
      .Set("sim_seconds", Json::Num(result.sim_seconds))
      .Set("wall_seconds", Json::Num(wall))
      .Set("sim_to_wall_ratio",
           Json::Num(wall > 0.0 ? result.sim_seconds / wall : 0.0));
}

// ---------------------------------------------------------------------------
// Big-topology packet path: the k=16 fat-tree (1024 hosts, 1280 switch
// ports) under websearch load. The dumbbell loop above isolates per-packet
// queue cost; this section measures the workload the hot-path refactor
// actually targets — burst-drain trains and ECMP route lookups spread
// across thousands of ports — as switch-hop dequeues per wall second.
// ---------------------------------------------------------------------------

Json FatTreePacketPath(std::size_t flows, Metric* metric) {
  FatTreeExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.topo.k = 16;
  config.load = 0.5;
  config.flows = flows;
  config.seed = 1;
  const auto start = Clock::now();
  const ExperimentResult result = RunFatTree(config);
  const double wall = SecondsSince(start);
  *metric = Metric{result.bottleneck.dequeued, wall};
  // "packet_rate" deliberately avoids the *_per_sec suffix: a single-shot
  // 5-second simulation is too noisy for the 2% perf_gate (same reason
  // websearch_70 exports sim_to_wall_ratio). The fat-tree trajectory is
  // gated separately through BENCH_fattree.json at a loose threshold.
  return Json::Object()
      .Set("items", Json::UInt(metric->items))
      .Set("seconds", Json::Num(metric->seconds))
      .Set("packet_rate", Json::Num(metric->rate()))
      .Set("flows_completed", Json::UInt(result.flows_completed))
      .Set("sim_seconds", Json::Num(result.sim_seconds))
      .Set("sim_to_wall_ratio",
           Json::Num(wall > 0.0 ? result.sim_seconds / wall : 0.0));
}

}  // namespace
}  // namespace ecnsharp

namespace {

// Run a micro-metric several times and keep the fastest rep. The micro loops
// finish in tens of milliseconds, where scheduler noise swings single-shot
// rates by +/-20%; the best-of floor is what the 2% perf_gate threshold
// needs. End-to-end sections (websearch_70, packet_path_fattree) run whole
// simulations for seconds and stay single-shot.
template <typename Fn>
ecnsharp::Metric BestOf(int reps, Fn fn) {
  ecnsharp::Metric best = fn();
  for (int i = 1; i < reps; ++i) {
    const ecnsharp::Metric m = fn();
    if (m.rate() > best.rate()) best = m;
  }
  return best;
}

}  // namespace

int main() {
  using namespace ecnsharp;

  const auto events =
      static_cast<std::uint64_t>(EnvInt("ECNSHARP_PERF_EVENTS", 2'000'000));
  const auto packets =
      static_cast<std::uint64_t>(EnvInt("ECNSHARP_PERF_PACKETS", 2'000'000));
  const auto flows =
      static_cast<std::size_t>(EnvInt("ECNSHARP_PERF_FLOWS", 2'000));
  const int reps = static_cast<int>(EnvInt("ECNSHARP_PERF_REPS", 7));

  const Metric churn = BestOf(reps, [&] { return EventChurn(events); });
  std::printf("event_churn:        %10.0f events/s  (%llu events, %.3f s)\n",
              churn.rate(), static_cast<unsigned long long>(churn.items),
              churn.seconds);

  const Metric cancel =
      BestOf(reps, [&] { return EventCancelChurn(events / 3); });
  std::printf("event_cancel_churn: %10.0f events/s  (%llu events, %.3f s)\n",
              cancel.rate(), static_cast<unsigned long long>(cancel.items),
              cancel.seconds);

  const Metric pkts = BestOf(reps, [&] { return PacketPath(packets); });
  std::printf("packet_path:        %10.0f packets/s (%llu packets, %.3f s)\n",
              pkts.rate(), static_cast<unsigned long long>(pkts.items),
              pkts.seconds);

  const Metric pkts_sketch =
      BestOf(reps, [&] { return PacketPathSketch(packets); });
  std::printf("packet_path_sketch: %10.0f packets/s (%llu packets, %.3f s)\n",
              pkts_sketch.rate(),
              static_cast<unsigned long long>(pkts_sketch.items),
              pkts_sketch.seconds);

  const Metric admission =
      BestOf(reps, [&] { return BufferAdmission(packets); });
  std::printf(
      "buffer_admission:   %10.0f admissions/s (%llu admissions, %.3f s)\n",
      admission.rate(), static_cast<unsigned long long>(admission.items),
      admission.seconds);

  const Json websearch = WebSearchAt70(flows);
  std::printf("websearch_70:       see JSON (flows=%zu)\n", flows);

  const auto fattree_flows = static_cast<std::size_t>(
      EnvInt("ECNSHARP_PERF_FATTREE_FLOWS", 2'000));
  Metric fattree_pkts;
  const Json fattree = FatTreePacketPath(fattree_flows, &fattree_pkts);
  std::printf(
      "packet_path_fattree: %9.0f packets/s (%llu switch-hop dequeues, "
      "%.3f s)\n",
      fattree_pkts.rate(),
      static_cast<unsigned long long>(fattree_pkts.items),
      fattree_pkts.seconds);

  Json doc = Json::Object()
                 .Set("schema_version", Json::Int(1))
                 .Set("bench", Json::Str("perf_core"))
                 .Set("metrics",
                      Json::Object()
                          .Set("event_churn", ToJson(churn, "events_per_sec"))
                          .Set("event_cancel_churn",
                               ToJson(cancel, "events_per_sec"))
                          .Set("packet_path", ToJson(pkts, "packets_per_sec"))
                          .Set("packet_path_sketch",
                               ToJson(pkts_sketch, "packets_per_sec"))
                          .Set("buffer_admission",
                               ToJson(admission, "admissions_per_sec"))
                          .Set("packet_path_fattree", fattree)
                          .Set("websearch_70", websearch));

  const char* out_env = std::getenv("ECNSHARP_BENCH_OUT");
  const std::string path =
      (out_env == nullptr || *out_env == '\0') ? "BENCH_core.json" : out_env;
  if (!runner::WriteTextFile(path, doc.Dump())) {
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

#include "harness/relaxed_lanes.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "harness/schemes.h"
#include "sim/lane_executor.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "stats/fct_collector.h"
#include "topo/rtt_variation.h"

namespace ecnsharp {

namespace {

// One pre-drawn workload arrival. Arrivals are drawn single-threaded from
// the forked rng stream (identical draws to TrafficGenerator::Start) and
// then scheduled onto the source host's lane.
struct PendingFlow {
  Time at;
  TcpStack* stack;
  std::uint32_t dst;
  std::uint64_t size;
  CcKind cc;
};

void ValidateRelaxedConfig(const FatTreeExperimentConfig& config,
                           std::size_t lane_count) {
  if (lane_count < 2) {
    FatalConfigError("relaxed-lanes needs >= 2 lanes, got " +
                     std::to_string(lane_count));
  }
  if (!config.scenario.empty()) {
    FatalConfigError(
        "relaxed-lanes cannot run scenario scripts (scenario hooks assume a "
        "single event clock); drop the scenario or run lanes-off");
  }
  if (config.trace.enabled) {
    FatalConfigError(
        "relaxed-lanes cannot run with tracing enabled (the flight recorder "
        "assumes a single event clock); disable trace or run lanes-off");
  }
  if (config.sketch.enabled) {
    FatalConfigError(
        "relaxed-lanes cannot run with sketch telemetry enabled; disable "
        "sketch or run lanes-off");
  }
  if (!config.queue_sample_period.IsZero()) {
    FatalConfigError(
        "relaxed-lanes cannot run queue sampling (monitors assume a single "
        "event clock); set queue_sample_period to 0 or run lanes-off");
  }
  if (config.topo.fabric_link_delay <= Time::Zero()) {
    FatalConfigError(
        "relaxed-lanes needs a positive fabric_link_delay (it is the "
        "conservative round window / cross-lane lookahead)");
  }
}

}  // namespace

ExperimentResult RunFatTreeRelaxed(const FatTreeExperimentConfig& config,
                                   std::size_t lane_count) {
  ValidateRelaxedConfig(config, lane_count);

  LaneSet lanes(lane_count);

  FatTreeConfig topo_config = config.topo;
  topo_config.buffer_bytes = config.params.buffer_bytes;
  topo_config.buffer_policy = config.buffer_policy;
  FatTree topo(lanes.lane(0), topo_config,
               FifoDiscFactory(config.scheme, config.params), &lanes);

  // Rng discipline identical to ExperimentSession::Bind: per-host RTT
  // extras from the session rng in host order, then fork for the arrival
  // process. The offered load is therefore draw-for-draw the load the
  // single-lane runner offers at the same seed.
  Rng rng(config.seed);
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    topo.host(i).set_extra_egress_delay(
        SampleRttExtra(rng, config.max_extra_delay, RttProfile::kLeafSpine));
  }
  Rng flow_rng = rng.Fork();

  // Pre-draw every arrival with TrafficGenerator's exact draw sequence:
  // exponential gap, size, (src, dst) pair, optional CC Bernoulli.
  const double bits_per_flow = config.workload->Mean() * 8.0;
  const double arrival_rate =
      config.load *
      static_cast<double>(topo.ReferenceCapacity().bps()) / bits_per_flow;
  const double mean_gap_s = 1.0 / arrival_rate;
  std::vector<PendingFlow> pending;
  pending.reserve(config.flows);
  Time at = Time::Zero();
  for (std::size_t i = 0; i < config.flows; ++i) {
    at += Time::FromSeconds(flow_rng.Exponential(mean_gap_s));
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, config.workload->Sample(flow_rng)));
    auto [stack, dst] = topo.SampleFlowPair(flow_rng);
    CcKind cc = CcKind::kNewReno;
    if (config.cc_mix > 0.0 && flow_rng.Uniform() < config.cc_mix) {
      cc = CcKind::kCubic;
    }
    pending.push_back(PendingFlow{at, stack, dst, size, cc});
  }

  // Each arrival starts on its source host's lane; the completion callback
  // also fires there (the final ACK arrives at the sender), so per-lane
  // record vectors and counters are touched by exactly one lane thread.
  std::vector<std::vector<FlowRecord>> lane_records(lane_count);
  std::vector<std::size_t> lane_started(lane_count, 0);
  for (const PendingFlow& flow : pending) {
    const std::size_t lane =
        topo.LaneOfLocality(flow.stack->host().locality_id());
    std::vector<FlowRecord>* records = &lane_records[lane];
    std::size_t* started = &lane_started[lane];
    lanes.lane(lane).ScheduleAt(
        flow.at, [flow, records, started] {
          ++*started;
          flow.stack->StartFlow(
              flow.dst, flow.size,
              [records](const FlowRecord& record) {
                records->push_back(record);
              },
              /*traffic_class=*/0, flow.cc);
        });
  }

  // Drive all lanes in 10 ms slices (matching the single-lane session's
  // drain granularity) with the conservative round window equal to the
  // cross-lane link latency, until every flow completed or the safety cap.
  const Time window = topo_config.fabric_link_delay;
  const auto completed = [&lane_records] {
    std::size_t total = 0;
    for (const auto& records : lane_records) total += records.size();
    return total;
  };
  Time now = Time::Zero();
  while (completed() < config.flows && now < config.max_sim_time) {
    Time next = now + Time::Milliseconds(10);
    if (next > config.max_sim_time) next = config.max_sim_time;
    lanes.Run(next, window);
    now = next;
  }

  // Deterministic merge: lane completion order is round-quantized, so sort
  // the union on (start_time, flow key) — unique per arrival — before
  // feeding the collector. Result summaries are then run-to-run stable.
  std::vector<FlowRecord> merged;
  merged.reserve(completed());
  for (auto& records : lane_records) {
    merged.insert(merged.end(), records.begin(), records.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return std::make_tuple(a.start_time, a.flow.src, a.flow.dst,
                                     a.flow.src_port, a.flow.dst_port) <
                     std::make_tuple(b.start_time, b.flow.src, b.flow.dst,
                                     b.flow.src_port, b.flow.dst_port);
            });
  FctCollector collector;
  for (const FlowRecord& record : merged) collector.Record(record);

  ExperimentResult result;
  result.overall = collector.Overall();
  result.short_flows = collector.ShortFlows();
  result.large_flows = collector.LargeFlows();
  result.timeouts = collector.total_timeouts();
  std::size_t started = 0;
  for (std::size_t s : lane_started) started += s;
  result.flows_started = started;
  result.flows_completed = collector.count();
  result.bottleneck = topo.TotalBottleneckStats();
  result.sim_seconds = lanes.lane(0).Now().ToSeconds();
  if (config.cc_mix > 0.0) {
    result.cubic_fct = collector.SummaryByCc(CcKind::kCubic);
    result.newreno_fct = collector.SummaryByCc(CcKind::kNewReno);
    result.cubic_bytes = collector.BytesByCc(CcKind::kCubic);
    result.newreno_bytes = collector.BytesByCc(CcKind::kNewReno);
  }
  return result;
}

}  // namespace ecnsharp

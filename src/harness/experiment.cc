// The experiment runners: one fabric runner the four fabric families
// configure, plus the incast runner. Everything they share with each other —
// generator wiring, monitors, scenario hooks, the run loop, result filling —
// lives in harness/session.cc.
#include "harness/experiment.h"

#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "harness/session.h"
#include "sim/logging.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/rtt_variation.h"

namespace ecnsharp {

namespace {

using RttAssignment = ExperimentSessionConfig::RttAssignment;

// Session config from the shared fields plus the family's RTT assignment.
ExperimentSessionConfig SessionConfig(const ExperimentCommon& config,
                                      RttAssignment rtt_assignment,
                                      Time max_rtt_extra,
                                      RttProfile rtt_profile) {
  ExperimentSessionConfig session;
  session.workload = config.workload;
  session.load = config.load;
  session.flows = config.flows;
  session.seed = config.seed;
  session.rtt_assignment = rtt_assignment;
  session.max_rtt_extra = max_rtt_extra;
  session.rtt_profile = rtt_profile;
  session.queue_sample_period = config.queue_sample_period;
  session.max_sim_time = config.max_sim_time;
  session.scenario = config.scenario;
  session.trace = config.trace;
  session.sketch = config.sketch;
  session.estimator = config.estimator;
  session.cc_mix = config.cc_mix;
  return session;
}

// Traffic a family wires by hand after Bind; the single fabrics have none.
struct NoExtraTraffic {
  template <typename Config, typename Topo>
  NoExtraTraffic(const Config&, Topo&, ExperimentSession&) {}
  bool Pending() const { return false; }
  void Finish(ExperimentResult&) const {}
};

// The one fabric runner: the session, the topology with the scheme's FIFO
// disc on every switch egress port (buffer size and policy from the shared
// fields), Bind, the family's extra traffic, Run until that has drained
// too, Result.
template <typename Topo, typename Extra = NoExtraTraffic, typename Config,
          typename TopoConfig>
ExperimentResult RunFabric(const Config& config,
                           ExperimentSessionConfig session_config,
                           TopoConfig topo_config) {
  ExperimentSession session(std::move(session_config));
  topo_config.buffer_bytes = config.params.buffer_bytes;
  topo_config.buffer_policy = config.buffer_policy;
  Topo topo(session.sim(), topo_config,
            FifoDiscFactory(config.scheme, config.params));
  session.Bind(topo);
  Extra extra(config, topo, session);
  session.Run([&extra] { return extra.Pending(); });
  ExperimentResult result = session.Result();
  extra.Finish(result);
  return result;
}

// RunInterDc's split traffic matrix. Per-side extras and intra generators
// come from Rng(seed + side), in the draw order of ExperimentSession::Bind's
// kPerHostSample-then-Fork, so a zero-border composed run reproduces the
// standalone runs byte-for-byte; the cross-border generator comes from
// Rng(seed + 2).
class SplitTraffic {
 public:
  SplitTraffic(const InterDcExperimentConfig& config, ComposedTopology& topo,
               ExperimentSession& session) {
    Simulator& sim = session.sim();
    FctCollector& collector = session.collector();
    // Flow split: round(f * flows) cross the border, the rest alternate-split
    // across the sides (side A gets the odd one).
    const auto inter_flows = static_cast<std::size_t>(std::llround(
        config.inter_fraction * static_cast<double>(config.flows)));
    const std::size_t intra_flows = config.flows - inter_flows;
    const std::size_t side_flows[2] = {(intra_flows + 1) / 2, intra_flows / 2};

    for (std::size_t s = 0; s < 2; ++s) {
      Rng rng(config.seed + s);
      for (std::size_t i = 0; i < topo.side_host_count(s); ++i) {
        topo.side(s).host(i).set_extra_egress_delay(SampleRttExtra(
            rng, config.max_extra_delay, RttProfile::kLeafSpine));
      }
      if (side_flows[s] == 0) continue;
      TrafficConfig traffic;
      traffic.load = config.load;
      traffic.reference_capacity = topo.side(s).ReferenceCapacity();
      traffic.flow_count = side_flows[s];
      traffic.cubic_fraction = config.cc_mix;
      generators_[s] = std::make_unique<TrafficGenerator>(
          sim, *config.workload, traffic,
          [&topo, s](Rng& r) { return topo.SampleIntraPair(s, r); },
          [this, &collector, s](const FlowRecord& record) {
            collector.Record(record);
            intra_.Record(record);
            sides_[s].Record(record);
          },
          rng.Fork());
    }

    // Cross-border generator: its load targets the border aggregate (the
    // inter-DC bottleneck), not the combined fabric capacity — f * L of the
    // fabric bisection would oversaturate an oversubscribed border and never
    // drain.
    if (inter_flows > 0) {
      Rng rng(config.seed + 2);
      TrafficConfig traffic;
      traffic.load = config.load;
      traffic.reference_capacity = DataRate::BitsPerSecond(
          config.topo.border_rate.bps() *
          static_cast<std::int64_t>(config.topo.border_links));
      traffic.flow_count = inter_flows;
      traffic.cubic_fraction = config.cc_mix;
      generators_[2] = std::make_unique<TrafficGenerator>(
          sim, *config.inter_workload, traffic,
          [&topo](Rng& r) { return topo.SampleInterPair(r); },
          [this, &collector](const FlowRecord& record) {
            collector.Record(record);
            inter_.Record(record);
          },
          rng.Fork());
    }
    for (auto& generator : generators_) {
      if (generator != nullptr) generator->Start();
    }
  }

  bool Pending() const {
    for (const auto& generator : generators_) {
      if (generator != nullptr && !generator->AllDone()) return true;
    }
    return false;
  }

  void Finish(ExperimentResult& result) const {
    for (const auto& generator : generators_) {
      if (generator == nullptr) continue;
      result.flows_started += generator->started();
      result.flows_completed += generator->completed();
    }
    result.intra_fct = intra_.Overall();
    result.intra_short_fct = intra_.ShortFlows();
    result.inter_fct = inter_.Overall();
    result.inter_short_fct = inter_.ShortFlows();
    result.intra_a_fct = sides_[0].Overall();
    result.intra_b_fct = sides_[1].Overall();
    result.intra_timeouts = intra_.total_timeouts();
    result.inter_timeouts = inter_.total_timeouts();
  }

 private:
  FctCollector intra_;
  FctCollector sides_[2];
  FctCollector inter_;
  std::unique_ptr<TrafficGenerator> generators_[3];
};

}  // namespace

ExperimentResult RunDumbbell(const DumbbellExperimentConfig& config) {
  DumbbellConfig topo;
  topo.senders = config.senders;
  topo.rate = config.rate;
  topo.base_rtt = config.base_rtt;
  topo.tcp = config.tcp;
  // Per-sender netem extras spanning the requested RTT variation.
  return RunFabric<Dumbbell>(
      config,
      SessionConfig(config, RttAssignment::kQuantiles,
                    config.base_rtt * (config.rtt_variation - 1.0),
                    RttProfile::kTestbed),
      topo);
}

ExperimentResult RunLeafSpine(const LeafSpineExperimentConfig& config) {
  // §5.3's per-host base-RTT distribution: one sampled extra per host.
  return RunFabric<LeafSpine>(
      config,
      SessionConfig(config, RttAssignment::kPerHostSample,
                    config.max_extra_delay, RttProfile::kLeafSpine),
      config.topo);
}

ExperimentResult RunFatTree(const FatTreeExperimentConfig& config) {
  // As on the leaf-spine: one sampled extra per host, drawn before the
  // generator forks its stream.
  return RunFabric<FatTree>(
      config,
      SessionConfig(config, RttAssignment::kPerHostSample,
                    config.max_extra_delay, RttProfile::kLeafSpine),
      config.topo);
}

ExperimentResult RunInterDc(const InterDcExperimentConfig& config) {
  if (config.inter_fraction < 0.0 || config.inter_fraction > 1.0 ||
      !std::isfinite(config.inter_fraction)) {
    FatalConfigError("interdc inter_fraction out of range: got " +
                     std::to_string(config.inter_fraction) +
                     "; valid range [0, 1]");
  }
  // No session workload and no session RTT assignment: SplitTraffic wires
  // the split matrix and the per-side extras by hand, one rng stream per
  // side (the reduction-parity contract of topo/composed.h).
  ExperimentSessionConfig session =
      SessionConfig(config, RttAssignment::kNone, Time::Zero(),
                    RttProfile::kTestbed);
  session.workload = nullptr;
  ComposedConfig topo = config.topo;
  for (ComposedSideConfig* side : {&topo.side_a, &topo.side_b}) {
    side->leaf_spine.buffer_bytes = config.params.buffer_bytes;
    side->leaf_spine.buffer_policy = config.buffer_policy;
    side->fat_tree.buffer_bytes = config.params.buffer_bytes;
    side->fat_tree.buffer_policy = config.buffer_policy;
  }
  return RunFabric<ComposedTopology, SplitTraffic>(config, std::move(session),
                                                  topo);
}

IncastResult RunIncast(const IncastExperimentConfig& config) {
  ExperimentSessionConfig session_config;
  session_config.seed = config.seed;
  // §5.4 setup mirrors the large-scale simulations' RTT distribution.
  session_config.rtt_assignment =
      ExperimentSessionConfig::RttAssignment::kQuantiles;
  session_config.max_rtt_extra = config.base_rtt * (config.rtt_variation - 1.0);
  session_config.rtt_profile = RttProfile::kLeafSpine;
  // Microscopic queue trace around the burst only (Fig. 10's window).
  session_config.queue_sample_period = config.queue_sample_period;
  session_config.monitor_from = config.burst_time - Time::Milliseconds(5);
  session_config.monitor_until = config.burst_time + Time::Milliseconds(20);
  session_config.max_sim_time = config.max_sim_time;
  session_config.trace = config.trace;
  session_config.sketch = config.sketch;
  ExperimentSession session(std::move(session_config));
  Simulator& sim = session.sim();

  DumbbellConfig topo_config;
  topo_config.senders = config.senders;
  topo_config.rate = config.rate;
  topo_config.base_rtt = config.base_rtt;
  topo_config.buffer_bytes = config.params.buffer_bytes;
  topo_config.tcp = config.tcp;
  Dumbbell topo(sim, topo_config,
                FifoDiscFactory(config.scheme, config.params));

  session.Bind(topo);
  const std::uint32_t receiver = topo.receiver_address();

  // Long-lived elephants from the smallest-RTT senders: with a tail-RTT
  // marking threshold these are exactly the flows that build the standing
  // queue the paper's Fig. 10 shows.
  constexpr std::uint64_t kElephantBytes = 1ull << 40;  // never finishes
  for (std::size_t i = 0; i < config.long_flows; ++i) {
    const std::size_t sender = i % config.senders;
    sim.ScheduleAt(Time::Milliseconds(1) * static_cast<std::int64_t>(i + 1),
                   [&topo, sender, receiver] {
                     topo.sender_stack(sender).StartFlow(
                         receiver, kElephantBytes, nullptr);
                   });
  }

  // Query burst at burst_time; completions land in the session collector.
  FctCollector& query_collector = session.collector();
  std::size_t queries_completed = 0;
  Rng rng(config.seed);
  for (std::size_t q = 0; q < config.query_flows; ++q) {
    const std::size_t sender = q % config.senders;
    const std::uint64_t size =
        config.query_min_bytes +
        rng.UniformInt(config.query_max_bytes - config.query_min_bytes + 1);
    sim.ScheduleAt(config.burst_time, [&topo, &query_collector,
                                       &queries_completed, sender, receiver,
                                       size] {
      topo.sender_stack(sender).StartFlow(
          receiver, size,
          [&query_collector, &queries_completed](const FlowRecord& record) {
            query_collector.Record(record);
            ++queries_completed;
          });
    });
  }

  // Snapshot overflow drops just before the burst so the result separates
  // burst-induced losses from background startup transients.
  std::uint64_t drops_before_burst = 0;
  sim.ScheduleAt(config.burst_time - Time::Nanoseconds(1),
                 [&topo, &drops_before_burst] {
                   drops_before_burst =
                       topo.TotalBottleneckStats().dropped_overflow;
                 });

  // Run at least through the queue-trace window, then until the queries
  // finish (or the safety cap).
  const Time trace_end = config.burst_time + Time::Milliseconds(20);
  session.Run([&] {
    return sim.Now() < trace_end || queries_completed < config.query_flows;
  });

  IncastResult result;
  result.query_fct = query_collector.Overall();
  result.query_timeouts = query_collector.total_timeouts();
  result.total_drops = topo.TotalBottleneckStats().dropped_overflow;
  result.drops = result.total_drops - drops_before_burst;
  QueueMonitorSet& monitors = session.monitors();
  if (!monitors.empty()) {
    result.max_queue_packets = monitors.MaxPackets();
    // Standing queue: the 5 ms window immediately before the burst.
    result.standing_queue_packets = monitors.AvgPackets(
        config.burst_time - Time::Milliseconds(5), config.burst_time);
    result.queue_trace = monitors.monitor(0).samples();
  }
  result.queries_completed = queries_completed;
  result.trace = session.trace();
  result.sketch = session.sketch();
  return result;
}

ExperimentOutcome RunExperiment(const ExperimentConfig& config) {
  return std::visit(
      [](const auto& c) -> ExperimentOutcome {
        using Config = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<Config, DumbbellExperimentConfig>) {
          return RunDumbbell(c);
        } else if constexpr (std::is_same_v<Config,
                                            LeafSpineExperimentConfig>) {
          return RunLeafSpine(c);
        } else if constexpr (std::is_same_v<Config, FatTreeExperimentConfig>) {
          return RunFatTree(c);
        } else if constexpr (std::is_same_v<Config, InterDcExperimentConfig>) {
          return RunInterDc(c);
        } else {
          return RunIncast(c);
        }
      },
      config);
}

}  // namespace ecnsharp

// The experiment runners: one fabric runner the four families configure.
// Everything they share — generator wiring, monitors, scenario hooks and
// burst bookkeeping, the run loop, result filling — lives in
// harness/session.cc.
#include "harness/experiment.h"

#include <cmath>
#include <memory>
#include <sstream>
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

// An RTT variation factor k gives per-sender extras of (k - 1) * base RTT;
// below 1 they would be negative, and from 2^62 ns on they would overflow
// Time once added to a clock.
void CheckRttVariation(double rtt_variation, Time base_rtt) {
  if (!(std::isfinite(rtt_variation) && rtt_variation >= 1.0)) {
    FatalConfigError("rtt_variation must be finite and >= 1, got " +
                     std::to_string(rtt_variation));
  }
  if (!(static_cast<double>(base_rtt.ns()) * (rtt_variation - 1.0) <
        0x1p62)) {
    std::ostringstream message;
    message << "rtt_variation " << rtt_variation << " over base RTT "
            << base_rtt.ToString()
            << " gives an extra delay of 2^62 ns or more";
    FatalConfigError(message.str());
  }
}

// The family's topology on the session's lanes. Only the fat-tree shards
// across more than one.
template <typename Topo, typename TopoConfig>
Topo BuildTopo(ExperimentSession& session, const TopoConfig& topo_config,
               const DiscFactory& make_disc) {
  if constexpr (std::is_same_v<Topo, FatTree>) {
    if (session.lanes().size() > 1) {
      return FatTree(session.sim(), topo_config, make_disc, &session.lanes());
    }
  }
  return Topo(session.sim(), topo_config, make_disc);
}

// Traffic a family wires by hand after Bind; the leaf-spine and fat-tree
// have none.
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
  Topo topo = BuildTopo<Topo>(session, topo_config,
                              FifoDiscFactory(config.scheme, config.params));
  session.Bind(topo);
  Extra extra(config, topo, session);
  session.Run([&extra] { return extra.Pending(); });
  ExperimentResult result = session.Result();
  extra.Finish(result);
  return result;
}

// The dumbbell's long flows: elephant i starts at (i + 1) ms from sender
// i % senders with 2^40 bytes (it never finishes) and no completion
// callback. With a tail-RTT marking threshold these are the flows that
// build the standing queue of Fig. 10.
class LongFlows {
 public:
  LongFlows(const DumbbellExperimentConfig& config, Dumbbell& topo,
            ExperimentSession& session) {
    constexpr std::uint64_t kElephantBytes = 1ull << 40;
    const std::uint32_t receiver = topo.receiver_address();
    for (std::size_t i = 0; i < config.long_flows; ++i) {
      TcpStack& sender = topo.sender_stack(i % config.senders);
      session.sim().ScheduleAt(
          Time::Milliseconds(1) * static_cast<std::int64_t>(i + 1),
          [&sender, receiver] {
            sender.StartFlow(receiver, kElephantBytes, nullptr);
          });
    }
  }
  bool Pending() const { return false; }
  void Finish(ExperimentResult&) const {}
};

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
  CheckRttVariation(config.rtt_variation, config.base_rtt);
  DumbbellConfig topo;
  topo.senders = config.senders;
  topo.rate = config.rate;
  topo.base_rtt = config.base_rtt;
  topo.tcp = config.tcp;
  // Per-sender netem extras spanning the requested RTT variation.
  return RunFabric<Dumbbell, LongFlows>(
      config,
      SessionConfig(config, RttAssignment::kQuantiles,
                    config.base_rtt * (config.rtt_variation - 1.0),
                    config.rtt_profile),
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

ExperimentResult RunFatTree(const FatTreeExperimentConfig& config,
                            std::size_t lanes) {
  // k pods plus the core tier are the fabric's localities; a lane beyond
  // them would never get work.
  if (lanes == 0 || lanes > config.topo.k + 1) {
    FatalConfigError("fat-tree lanes must be in [1, k + 1 = " +
                     std::to_string(config.topo.k + 1) + "], got " +
                     std::to_string(lanes));
  }
  // As on the leaf-spine: one sampled extra per host, drawn before the
  // generator forks its stream.
  ExperimentSessionConfig session =
      SessionConfig(config, RttAssignment::kPerHostSample,
                    config.max_extra_delay, RttProfile::kLeafSpine);
  session.lanes = lanes;
  session.lane_window = config.topo.fabric_link_delay;
  return RunFabric<FatTree>(config, std::move(session), config.topo);
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

DumbbellExperimentConfig IncastDumbbell(std::uint64_t seed) {
  DumbbellExperimentConfig config;
  config.params = SimulationSchemeParams();
  config.senders = 16;
  config.base_rtt = Time::FromMicroseconds(80);
  config.tcp.init_cwnd_segments = 3;
  config.queue_sample_period = Time::FromMicroseconds(10);
  config.max_sim_time = Time::Seconds(30);
  config.long_flows = 6;
  config.flows = 0;
  config.rtt_profile = RttProfile::kLeafSpine;
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(150);
  burst.flows = 100;
  burst.bytes = 3000;
  burst.bytes_hi = 60000;
  config.scenario.seed = seed;
  config.scenario.actions = {burst};
  config.seed = seed;
  return config;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  return std::visit(
      [](const auto& c) {
        using Config = std::decay_t<decltype(c)>;
        if constexpr (std::is_same_v<Config, DumbbellExperimentConfig>) {
          return RunDumbbell(c);
        } else if constexpr (std::is_same_v<Config,
                                            LeafSpineExperimentConfig>) {
          return RunLeafSpine(c);
        } else if constexpr (std::is_same_v<Config, FatTreeExperimentConfig>) {
          return RunFatTree(c);
        } else {
          return RunInterDc(c);
        }
      },
      config);
}

}  // namespace ecnsharp

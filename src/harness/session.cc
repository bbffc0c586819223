#include "harness/session.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/ecn_sharp.h"
#include "hostpath/rtt_probe.h"
#include "sim/logging.h"
#include "sketch/estimator.h"
#include "sketch/telemetry.h"
#include "trace/trace_recorder.h"

namespace ecnsharp {

namespace {

// The burst view's windows: the standing queue is the mean over the
// kStandingWindow before the first burst, and the queue trace runs from
// then to kBurstTail after it.
constexpr Time kStandingWindow = Time::Milliseconds(5);
constexpr Time kBurstTail = Time::Milliseconds(20);

// Every scenario target must resolve against the bound topology before the
// engine installs a single event. A stale target id in a scenario JSON
// (written for a different topology, or outlived by a config change) would
// otherwise be silently skipped at fire time — the run would look "static"
// while claiming to have executed the script. Fail fast, naming the action
// and the topology's valid target space.
void ValidateScenarioTargets(Topology& topo, const ScenarioScript& script) {
  for (std::size_t i = 0; i < script.actions.size(); ++i) {
    const ScenarioAction& action = script.actions[i];
    const std::string where = "scenario action #" + std::to_string(i) + " (" +
                              ScenarioActionKindName(action.kind) + ")";
    switch (action.kind) {
      case ScenarioActionKind::kSetHostDelay:
        if (action.target < 0 ||
            static_cast<std::size_t>(action.target) >= topo.host_count()) {
          FatalConfigError(where + ": host index " +
                           std::to_string(action.target) +
                           " out of range [0, " +
                           std::to_string(topo.host_count() - 1) + "]");
        }
        break;
      case ScenarioActionKind::kSetLinkRate:
      case ScenarioActionKind::kSetLinkDelay:
      case ScenarioActionKind::kLinkDown:
      case ScenarioActionKind::kLinkUp:
      case ScenarioActionKind::kInjectLoss:
        if (topo.ResolvePort(action.target) == nullptr) {
          FatalConfigError(where + ": port target " +
                           std::to_string(action.target) +
                           " does not resolve; valid targets: " +
                           topo.DescribePortTargets());
        }
        break;
      case ScenarioActionKind::kIncastBurst:
      case ScenarioActionKind::kReestimateEcnSharp:
        break;  // no port/host target
    }
  }
}

// Pushes freshly derived thresholds onto every ECN# instance of every
// bottleneck of `topo`, in every service class of the port's disc; classes
// not running ECN# are left untouched.
void ApplyEcnSharpConfig(Topology& topo, const EcnSharpConfig& fresh) {
  for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
    QueueDisc& disc = topo.bottleneck(b).queue_disc();
    for (std::size_t c = 0; c < disc.class_count(); ++c) {
      auto* aqm = dynamic_cast<EcnSharpAqm*>(disc.class_aqm(c));
      if (aqm != nullptr) aqm->Reconfigure(fresh);
    }
  }
}

}  // namespace

void ReestimateEcnSharp(Topology& topo) {
  std::vector<double> rtts_us;
  rtts_us.reserve(topo.host_count());
  topo.AppendRttSamplesUs(rtts_us);
  const RttStats stats = ComputeRttStats(std::move(rtts_us));
  if (stats.status != RttProbeStatus::kOk) return;
  ApplyEcnSharpConfig(topo,
                      RuleOfThumbConfig(Time::FromMicroseconds(stats.p90_us),
                                        Time::FromMicroseconds(stats.mean_us),
                                        /*lambda=*/1.0));
}

void ReestimateEcnSharpFromSketch(Topology& topo,
                                  const SketchTelemetry& telemetry, Time now) {
  const SketchRttEstimate estimate = EstimateFromSketch(telemetry, now);
  if (!estimate.valid) return;
  ApplyEcnSharpConfig(topo, SketchRuleOfThumb(estimate, /*lambda=*/1.0));
}

ExperimentSession::ExperimentSession(ExperimentSessionConfig config)
    : config_(std::move(config)), lanes_(config_.lanes), rng_(config_.seed) {
  if (config_.lanes <= 1) return;
  if (!config_.scenario.empty()) {
    FatalConfigError(
        "relaxed-lanes cannot run scenario scripts (scenario hooks assume a "
        "single event clock); drop the scenario or run lanes-off");
  }
  if (config_.trace.enabled) {
    FatalConfigError(
        "relaxed-lanes cannot run with tracing enabled (the flight recorder "
        "assumes a single event clock); disable trace or run lanes-off");
  }
  if (config_.sketch.enabled) {
    FatalConfigError(
        "relaxed-lanes cannot run with sketch telemetry enabled; disable "
        "sketch or run lanes-off");
  }
  if (!config_.queue_sample_period.IsZero()) {
    FatalConfigError(
        "relaxed-lanes cannot run queue sampling (monitors assume a single "
        "event clock); set queue_sample_period to 0 or run lanes-off");
  }
  if (config_.lane_window <= Time::Zero()) {
    FatalConfigError(
        "relaxed-lanes needs a positive fabric_link_delay (it is the "
        "conservative round window / cross-lane lookahead)");
  }
}

void ExperimentSession::Bind(Topology& topo) {
  topo_ = &topo;

  if (config_.trace.enabled) {
    recorder_ = std::make_shared<TraceRecorder>(config_.trace);
  }
  if (config_.sketch.enabled) {
    telemetry_ = std::make_shared<SketchTelemetry>(config_.sketch);
  }
  if (recorder_ != nullptr || telemetry_ != nullptr) {
    // One site per bottleneck port, in bottleneck order (labels and site
    // ids are therefore deterministic for a given topology). Each port and
    // host stack lists the recorder first, then the telemetry.
    for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
      EgressPort& port = topo.bottleneck(b);
      const std::string label = "bottleneck" + std::to_string(b);
      site_ports_.push_back(&port);
      if (recorder_ != nullptr) {
        port.AddTracer(recorder_->PortTap(recorder_->RegisterSite(label)));
      }
      if (telemetry_ != nullptr) {
        const std::uint16_t site = telemetry_->RegisterSite(label);
        port.AddTracer(telemetry_->PortTap(site));
        // Border ports of a composed fabric annotate their WAN base RTT;
        // seed the sketch's histogram so sketch-driven re-estimation covers
        // the inter-DC paths from the first epoch.
        const Time hint = port.base_rtt_hint();
        if (hint > Time::Zero()) telemetry_->SetSiteBaseRtt(site, hint);
      }
    }
    for (std::size_t i = 0; i < topo.host_count(); ++i) {
      topo.stack(i).AddTransportTracer(recorder_.get());
      topo.stack(i).AddTransportTracer(telemetry_.get());
    }
  }

  // RTT extras first: kPerHostSample draws from the session rng in host
  // order, so the generator's forked stream below stays seed-stable.
  switch (config_.rtt_assignment) {
    case ExperimentSessionConfig::RttAssignment::kNone:
      break;
    case ExperimentSessionConfig::RttAssignment::kQuantiles: {
      const std::vector<Time> extras = RttExtraQuantiles(
          topo.host_count(), config_.max_rtt_extra, config_.rtt_profile);
      for (std::size_t i = 0; i < extras.size(); ++i) {
        topo.host(i).set_extra_egress_delay(extras[i]);
      }
      break;
    }
    case ExperimentSessionConfig::RttAssignment::kPerHostSample:
      for (std::size_t i = 0; i < topo.host_count(); ++i) {
        topo.host(i).set_extra_egress_delay(SampleRttExtra(
            rng_, config_.max_rtt_extra, config_.rtt_profile));
      }
      break;
  }

  if (config_.workload != nullptr) {
    TrafficConfig traffic;
    traffic.load = config_.load;
    traffic.reference_capacity = topo.ReferenceCapacity();
    traffic.flow_count = config_.flows;
    traffic.cubic_fraction = config_.cc_mix;
    // Each flow completes on its source host's lane thread: a multi-lane
    // run parks the records for Result() to merge in a fixed order.
    TcpSender::CompletionCallback on_complete =
        [this](const FlowRecord& record) { collector_.Record(record); };
    if (lanes_.size() > 1) {
      on_complete = [this](const FlowRecord& record) {
        const std::lock_guard<std::mutex> lock(lane_records_mu_);
        lane_records_.push_back(record);
      };
    }
    generator_ = std::make_unique<TrafficGenerator>(
        sim(), *config_.workload, traffic,
        [&topo](Rng& r) { return topo.SampleFlowPair(r); },
        std::move(on_complete), rng_.Fork());
  }

  if (!config_.queue_sample_period.IsZero()) {
    for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
      monitors_.Add(sim(), topo.bottleneck(b).queue_disc(),
                    config_.queue_sample_period);
    }
    monitors_.RunAll(Time::Zero(), config_.max_sim_time);
  }

  if (!config_.scenario.empty()) {
    ValidateScenarioTargets(topo, config_.scenario);
    ScenarioHooks hooks;
    hooks.port = [&topo](int target) { return topo.ResolvePort(target); };
    hooks.set_host_delay = [&topo](int index, Time delay) {
      if (index >= 0 && static_cast<std::size_t>(index) < topo.host_count()) {
        topo.host(static_cast<std::size_t>(index))
            .set_extra_egress_delay(delay);
      }
    };
    hooks.incast = [this, &topo](const std::vector<std::uint64_t>& sizes) {
      if (!burst_fired_) {
        burst_fired_ = true;
        first_burst_ = sim().Now();
        drops_before_burst_ = topo.TotalBottleneckStats().dropped_overflow;
      }
      const std::uint32_t target = topo.IncastTarget();
      for (const std::uint64_t bytes : sizes) {
        TcpStack& sender = topo.IncastSender(next_burst_sender_++);
        ++burst_started_;
        sender.StartFlow(target, bytes, [this](const FlowRecord& record) {
          collector_.Record(record);
          burst_collector_.Record(record);
          ++burst_completed_;
        });
      }
    };
    hooks.reestimate_ecnsharp = [this, &topo] {
      if (config_.estimator == EcnEstimator::kSketch && telemetry_ != nullptr) {
        ReestimateEcnSharpFromSketch(topo, *telemetry_, sim().Now());
      } else {
        ReestimateEcnSharp(topo);
      }
    };
    if (recorder_ != nullptr) {
      hooks.on_action = [this](const ScenarioAction& action, Time at) {
        recorder_->OnScenarioAction(at, static_cast<std::uint8_t>(action.kind),
                                    action.target);
      };
    }
    engine_ = std::make_unique<ScenarioEngine>(sim(), config_.scenario,
                                               std::move(hooks));
    engine_->Install();
  }
}

void ExperimentSession::Run(std::function<bool()> extra_pending) {
  if (generator_ != nullptr) generator_->Start();
  // Queue monitoring and pending scenario events keep the event heap
  // non-empty, so run in slices until everything the experiment waits on
  // has drained (or the safety cap trips).
  const auto work_pending = [&] {
    if (generator_ != nullptr && !generator_->AllDone()) return true;
    if (burst_completed_ < burst_started_) return true;
    if (burst_fired_ && !monitors_.empty() &&
        sim().Now() < first_burst_ + kBurstTail) {
      return true;
    }
    if (engine_ != nullptr &&
        engine_->actions_fired() < engine_->actions_scheduled()) {
      return true;
    }
    return extra_pending != nullptr && extra_pending();
  };
  while (work_pending() && sim().Now() < config_.max_sim_time) {
    lanes_.Run(sim().Now() + Time::Milliseconds(10), config_.lane_window);
  }
  // The taps count nothing: each site reads its port's own counters.
  for (std::size_t s = 0; s < site_ports_.size(); ++s) {
    const PortCounts counts = site_ports_[s]->counts();
    const auto site = static_cast<std::uint16_t>(s);
    if (recorder_ != nullptr) recorder_->SetSiteCounts(site, counts);
    if (telemetry_ != nullptr) telemetry_->SetSiteCounts(site, counts);
  }
}

ExperimentResult ExperimentSession::Result() {
  // Lane completion order is round-quantized; (start time, flow key) is
  // unique per arrival, so this order is the same on every run.
  std::sort(lane_records_.begin(), lane_records_.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return std::tie(a.start_time, a.flow.src, a.flow.dst,
                              a.flow.src_port, a.flow.dst_port) <
                     std::tie(b.start_time, b.flow.src, b.flow.dst,
                              b.flow.src_port, b.flow.dst_port);
            });
  for (const FlowRecord& record : lane_records_) collector_.Record(record);
  lane_records_.clear();

  ExperimentResult result;
  result.overall = collector_.Overall();
  result.short_flows = collector_.ShortFlows();
  result.large_flows = collector_.LargeFlows();
  result.timeouts = collector_.total_timeouts();
  result.flows_started =
      (generator_ != nullptr ? generator_->started() : 0) + burst_started_;
  result.flows_completed =
      (generator_ != nullptr ? generator_->completed() : 0) + burst_completed_;
  result.bottleneck = topo_->TotalBottleneckStats();
  if (!monitors_.empty()) {
    result.avg_queue_packets = monitors_.AvgPackets();
    result.max_queue_packets = monitors_.MaxPackets();
  }
  result.sim_seconds = sim().Now().ToSeconds();
  if (engine_ != nullptr) {
    result.scenario_actions = engine_->actions_fired();
    result.incast_bursts = engine_->bursts_fired();
    result.burst_flows_started = burst_started_;
    result.burst_flows_completed = burst_completed_;
    result.injected_drops = engine_->injected_drops();
    result.injected_corruptions = engine_->injected_corruptions();
    result.link_down_drops = topo_->TotalLinkDownDrops();
  }
  if (burst_fired_) {
    result.burst_fct = burst_collector_.Overall();
    result.burst_drops =
        result.bottleneck.dropped_overflow - drops_before_burst_;
  }
  if (burst_fired_ && !monitors_.empty()) {
    const Time from = first_burst_ - kStandingWindow;
    result.standing_queue_packets = monitors_.AvgPackets(from, first_burst_);
    for (const QueueMonitor::Sample& sample : monitors_.monitor(0).samples()) {
      if (sample.at < from || sample.at > first_burst_ + kBurstTail) continue;
      result.burst_queue_trace.push_back(sample);
      result.burst_max_queue_packets =
          std::max(result.burst_max_queue_packets, sample.packets);
    }
  }
  result.trace = recorder_;
  result.sketch = telemetry_;
  if (config_.cc_mix > 0.0) {
    result.cubic_fct = collector_.SummaryByCc(CcKind::kCubic);
    result.newreno_fct = collector_.SummaryByCc(CcKind::kNewReno);
    result.cubic_bytes = collector_.BytesByCc(CcKind::kCubic);
    result.newreno_bytes = collector_.BytesByCc(CcKind::kNewReno);
  }
  return result;
}

}  // namespace ecnsharp

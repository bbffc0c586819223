// ExperimentSession: the shared glue every experiment runner is built from.
//
// A session owns the simulator plus everything an experiment runner would
// otherwise wire by hand, built generically against the Topology
// interface:
//
//   * per-host RTT-extra assignment (quantile or sampled, §2.3 / §5.3),
//   * the open-loop TrafficGenerator (Poisson arrivals over SampleFlowPair),
//   * a QueueMonitor on every bottleneck queue,
//   * ScenarioEngine hooks (port targeting via ResolvePort, RTT shifts,
//     incast bursts toward IncastTarget, ECN# re-estimation from the
//     HostBaseRtt distribution),
//   * the sliced run loop with burst-flow bookkeeping, and
//   * the uniform ExperimentResult fill.
//
// Runners therefore reduce to: build a SessionConfig, build a Topology,
// Bind, optionally schedule extra traffic by hand, Run, Result. Any new
// Topology gets dynamics, monitoring, and uniform metrics for free.
#ifndef ECNSHARP_HARNESS_SESSION_H_
#define ECNSHARP_HARNESS_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "dynamics/scenario.h"
#include "dynamics/scenario_engine.h"
#include "harness/experiment.h"
#include "net/packet_tracer.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/sketch_config.h"
#include "stats/fct_collector.h"
#include "stats/queue_monitor.h"
#include "topo/rtt_variation.h"
#include "topo/topology.h"
#include "trace/trace_config.h"
#include "trace/transport_tracer.h"
#include "workload/empirical_cdf.h"
#include "workload/traffic_generator.h"

namespace ecnsharp {

class TraceRecorder;
class SketchTelemetry;

struct ExperimentSessionConfig {
  // Open-loop background workload; null runs no generator (the incast
  // experiment schedules all of its traffic by hand).
  const EmpiricalCdf* workload = nullptr;
  double load = 0.5;
  std::size_t flows = 0;
  std::uint64_t seed = 1;

  // How Bind() assigns per-host extra delays. kQuantiles is deterministic
  // (testbed-style netem per sender); kPerHostSample consumes one rng draw
  // per host, in host order, before the generator forks its stream.
  enum class RttAssignment { kNone, kQuantiles, kPerHostSample };
  RttAssignment rtt_assignment = RttAssignment::kNone;
  Time max_rtt_extra = Time::Zero();
  RttProfile rtt_profile = RttProfile::kTestbed;

  // Queue occupancy sampling of every bottleneck (zero disables — no
  // monitors are instantiated at all). The window defaults to the whole
  // run; monitor_until == 0 means max_sim_time.
  Time queue_sample_period = Time::Zero();
  Time monitor_from = Time::Zero();
  Time monitor_until = Time::Zero();

  // Safety cap on simulated time.
  Time max_sim_time = Time::Seconds(120);

  // Optional mid-run network dynamics (empty = static network).
  ScenarioScript scenario;

  // Optional flight-recorder tracing: when enabled, Bind() creates a
  // TraceRecorder, taps every bottleneck port, attaches transport tracing
  // to every host stack, and records scenario actions.
  TraceConfig trace;

  // Optional sketch telemetry: when enabled, Bind() creates one
  // SketchTelemetry and taps the same bottleneck ports and host stacks
  // (tee'd with the flight recorder when both are on).
  SketchConfig sketch;

  // Which measurement source ECN# re-estimation actions read. kSketch
  // requires sketch.enabled; otherwise the action falls back to the oracle.
  EcnEstimator estimator = EcnEstimator::kOracle;

  // Fraction of generator flows assigned to CUBIC (seeded Bernoulli per
  // flow). Zero keeps the default-CC rng sequence untouched, and Result()
  // only fills the per-controller splits when it is positive.
  double cc_mix = 0.0;
};

class ExperimentSession {
 public:
  explicit ExperimentSession(ExperimentSessionConfig config);

  Simulator& sim() { return sim_; }
  FctCollector& collector() { return collector_; }
  QueueMonitorSet& monitors() { return monitors_; }
  ScenarioEngine* engine() { return engine_.get(); }
  // Null unless config.trace.enabled and Bind() has run.
  std::shared_ptr<const TraceRecorder> trace() const { return recorder_; }
  // Null unless config.sketch.enabled and Bind() has run.
  std::shared_ptr<const SketchTelemetry> sketch() const { return telemetry_; }

  // Wires the session to a topology: RTT extras, generator, monitors,
  // scenario hooks. Call exactly once, before Run().
  void Bind(Topology& topo);

  // Starts the generator (if any) and runs in 10 ms slices until the
  // workload has drained, every scheduled scenario occurrence has fired,
  // every burst flow has completed, and `extra_pending` (if given) returns
  // false — or the max_sim_time safety cap trips.
  void Run(std::function<bool()> extra_pending = nullptr);

  // Uniform metrics fill. Queue-occupancy fields are only populated when
  // sampling was enabled, dynamics counters only when a scenario ran.
  ExperimentResult Result();

 private:
  ExperimentSessionConfig config_;
  Simulator sim_;
  Rng rng_;
  FctCollector collector_;
  QueueMonitorSet monitors_;
  std::unique_ptr<TrafficGenerator> generator_;
  std::unique_ptr<ScenarioEngine> engine_;
  // Owned here, shared into results; taps installed on topology ports must
  // not outlive the recorder, so the session must outlive the topology
  // (declaration order in the runners guarantees this).
  std::shared_ptr<TraceRecorder> recorder_;
  std::shared_ptr<SketchTelemetry> telemetry_;
  // Tee glue when recorder and telemetry share a tracer slot; deque/optional
  // for stable addresses, same lifetime rules as the recorder taps.
  std::deque<TeeTracer> tee_taps_;
  std::optional<TeeTransportTracer> tee_transport_;
  Topology* topo_ = nullptr;
  // Scenario incast-burst bookkeeping: burst flows complete into the same
  // collector as the workload's, and Run() waits for them.
  std::size_t burst_started_ = 0;
  std::size_t burst_completed_ = 0;
  std::size_t next_burst_sender_ = 0;
};

// Re-derives ECN# thresholds on every bottleneck of `topo` from the hosts'
// *current* base-RTT distribution — the operator response to a known RTT
// shift (§3.4's rule-of-thumb applied to fresh measurements). Queues not
// running ECN# are left untouched.
void ReestimateEcnSharp(Topology& topo);

// Same re-derivation, but from sketch state only (what a real switch could
// measure): the windowed base-RTT sketch's p90/mean as of `now`. A no-op if
// the sketch window holds no admitted samples — the previous configuration
// is the best available estimate then.
void ReestimateEcnSharpFromSketch(Topology& topo,
                                  const SketchTelemetry& telemetry, Time now);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_SESSION_H_

// ExperimentSession: the shared glue every experiment runner is built from.
//
// A session owns the event engine (a LaneSet; a serial run is one lane)
// plus everything an experiment runner would otherwise wire by hand, built
// generically against the Topology interface:
//
//   * per-host RTT-extra assignment (quantile or sampled, §2.3 / §5.3),
//   * the open-loop TrafficGenerator (Poisson arrivals over SampleFlowPair),
//   * a QueueMonitor on every bottleneck queue,
//   * ScenarioEngine hooks (port targeting via ResolvePort, RTT shifts,
//     incast bursts toward IncastTarget, ECN# re-estimation from the
//     HostBaseRtt distribution),
//   * the sliced run loop with burst bookkeeping (burst FCTs, drops from the
//     first burst on, the standing queue and queue trace around it), and
//   * the uniform ExperimentResult fill.
//
// Runners therefore reduce to: build a SessionConfig, build a Topology,
// Bind, optionally schedule extra traffic by hand, Run, Result. Any new
// Topology gets dynamics, monitoring, and uniform metrics for free.
#ifndef ECNSHARP_HARNESS_SESSION_H_
#define ECNSHARP_HARNESS_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "dynamics/scenario.h"
#include "dynamics/scenario_engine.h"
#include "harness/experiment.h"
#include "net/egress_port.h"
#include "sim/lane_executor.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sketch/sketch_config.h"
#include "stats/fct_collector.h"
#include "stats/queue_monitor.h"
#include "topo/rtt_variation.h"
#include "topo/topology.h"
#include "trace/trace_config.h"
#include "workload/empirical_cdf.h"
#include "workload/traffic_generator.h"

namespace ecnsharp {

class TraceRecorder;
class SketchTelemetry;

struct ExperimentSessionConfig {
  // Open-loop background workload; null runs no generator (the inter-DC
  // runner wires its split traffic matrix by hand).
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

  // Queue occupancy sampling of every bottleneck over the whole run (zero
  // disables — no monitors are instantiated at all).
  Time queue_sample_period = Time::Zero();

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
  // (beside the flight recorder when both are on).
  SketchConfig sketch;

  // Which measurement source ECN# re-estimation actions read. kSketch
  // requires sketch.enabled; otherwise the action falls back to the oracle.
  EcnEstimator estimator = EcnEstimator::kOracle;

  // Fraction of generator flows assigned to CUBIC (seeded Bernoulli per
  // flow). Zero keeps the default-CC rng sequence untouched, and Result()
  // only fills the per-controller splits when it is positive.
  double cc_mix = 0.0;

  // Event lanes (1 = the serial run) and, for more than one, the round
  // window: the cross-lane link latency of a lane-sharded topology. More
  // than one lane rejects scenarios, tracing, sketching, queue sampling and
  // a non-positive window (exit 2) — those assume a single event clock.
  std::size_t lanes = 1;
  Time lane_window = Time::Zero();
};

class ExperimentSession {
 public:
  explicit ExperimentSession(ExperimentSessionConfig config);

  // Lane 0: the only simulator of a serial run, the core tier's lane of a
  // lane-sharded fat-tree.
  Simulator& sim() { return lanes_.lane(0); }
  LaneSet& lanes() { return lanes_; }
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

  // Starts the generator (if any) and runs every lane in 10 ms slices until
  // the workload has drained, every scheduled scenario occurrence has fired,
  // every burst flow has completed, with queue sampling on the queue trace
  // window after the first burst has passed, and `extra_pending` (if given)
  // returns false — or the max_sim_time safety cap trips. On return, every
  // trace and sketch site holds a copy of its port's counts.
  void Run(std::function<bool()> extra_pending = nullptr);

  // Uniform metrics fill. Queue-occupancy fields are only populated when
  // sampling was enabled, dynamics counters only when a scenario ran. With
  // more than one lane, generator completions are sorted by (start time,
  // flow key) before they reach the collector, so summaries do not depend
  // on lane completion order.
  ExperimentResult Result();

 private:
  ExperimentSessionConfig config_;
  LaneSet lanes_;
  Rng rng_;
  FctCollector collector_;
  // Generator completions of a multi-lane run, appended from lane threads.
  std::mutex lane_records_mu_;
  std::vector<FlowRecord> lane_records_;
  QueueMonitorSet monitors_;
  std::unique_ptr<TrafficGenerator> generator_;
  std::unique_ptr<ScenarioEngine> engine_;
  // Owned here, shared into results; taps installed on topology ports must
  // not outlive the recorder, so the session must outlive the topology
  // (declaration order in the runners guarantees this).
  std::shared_ptr<TraceRecorder> recorder_;
  std::shared_ptr<SketchTelemetry> telemetry_;
  // The port behind each trace/sketch site, indexed by site id.
  std::vector<EgressPort*> site_ports_;
  Topology* topo_ = nullptr;
  // Scenario incast-burst bookkeeping: burst flows complete into the same
  // collector as the workload's and into their own, and Run() waits for
  // them. The first burst's time and the overflow drops before it key the
  // burst view of Result().
  FctCollector burst_collector_;
  std::size_t burst_started_ = 0;
  std::size_t burst_completed_ = 0;
  std::size_t next_burst_sender_ = 0;
  bool burst_fired_ = false;
  Time first_burst_ = Time::Zero();
  std::uint64_t drops_before_burst_ = 0;
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

// Experiment runners assembling topology + workload + scheme + metrics.
// Used by every bench binary and by the examples.
#ifndef ECNSHARP_HARNESS_EXPERIMENT_H_
#define ECNSHARP_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "buffer/policy_spec.h"
#include "dynamics/scenario.h"
#include "harness/schemes.h"
#include "net/queue_disc.h"
#include "sim/data_rate.h"
#include "sketch/sketch_config.h"
#include "stats/fct_collector.h"
#include "stats/queue_monitor.h"
#include "topo/composed.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "trace/trace_config.h"
#include "transport/tcp_config.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp {

class TraceRecorder;
class SketchTelemetry;

// ---------------------------------------------------------------------------
// Fabric experiments: an open-loop workload over one topology, with the AQM
// under test on every switch egress port. The four families share every
// field of ExperimentCommon and differ only in their shape: the topology
// they build and how they assign per-host base RTTs.
// ---------------------------------------------------------------------------

struct ExperimentCommon {
  Scheme scheme = Scheme::kEcnSharp;
  SchemeParams params;
  const EmpiricalCdf* workload = &WebSearchWorkload();
  double load = 0.5;
  std::size_t flows = 2000;
  std::uint64_t seed = 1;
  // Queue occupancy sampling of every bottleneck (0 disables).
  Time queue_sample_period = Time::Zero();
  // Safety cap on simulated time.
  Time max_sim_time = Time::Seconds(120);
  // Optional mid-run network dynamics (link churn, loss injection, incast
  // bursts, RTT shifts — see dynamics/scenario.h); port target ids follow
  // the topology's convention. Empty = static network.
  ScenarioScript scenario;
  // Optional flight-recorder tracing of every bottleneck port (disabled by
  // default; zero-cost when off — see trace/trace_config.h).
  TraceConfig trace;
  // Optional sketch telemetry on the same ports (bounded-memory switch
  // state; off by default, only the tracer null check when off).
  SketchConfig sketch;
  // Which measurement source feeds scenario ECN# re-estimation actions;
  // kSketch needs sketch.enabled.
  EcnEstimator estimator = EcnEstimator::kOracle;
  // Fraction of workload flows driven by CUBIC instead of the default
  // controller (seeded Bernoulli per flow; 0 keeps the pure-DCTCP runs and
  // their rng sequence byte-identical).
  double cc_mix = 0.0;
  // Optional shared-buffer policy, one pool per switch chip (kNone keeps
  // static per-port buffers). The runner copies it and params.buffer_bytes
  // into the topology config.
  BufferPolicyConfig buffer_policy;
};

// Dumbbell (testbed-shaped): Figs. 2, 3, 6, 7, 8, 12.
struct DumbbellExperimentConfig : ExperimentCommon {
  // RTT variation k: per-sender netem extras span [0, (k-1) * base_rtt], so
  // base RTTs span [base_rtt, k * base_rtt] (§2.3's definition
  // RTTmax/RTTmin = k).
  double rtt_variation = 3.0;
  Time base_rtt = Time::FromMicroseconds(70);
  std::size_t senders = 7;
  DataRate rate = DataRate::GigabitsPerSecond(10);
  TcpConfig tcp;
};

// Leaf-spine (large-scale): Fig. 9.
struct LeafSpineExperimentConfig : ExperimentCommon {
  LeafSpineConfig topo;
  // Per-host extra delay upper bound: [80, 240] us base RTTs by default.
  Time max_extra_delay = Time::FromMicroseconds(160);
};

// Fat-tree (multi-tier, production-scale): k^3/4 hosts under three tiers of
// salted ECMP (topo/fat_tree.h).
struct FatTreeExperimentConfig : ExperimentCommon {
  FatTreeExperimentConfig() { params = SimulationSchemeParams(); }
  FatTreeConfig topo;
  // Per-host extra delay upper bound: [120, 280] us base RTTs by default
  // (inter-pod minimum 120 us + up to 160 us of per-host extras).
  Time max_extra_delay = Time::FromMicroseconds(160);
};

// Inter-DC composed fabric: two fabrics joined over ms-RTT border links
// (topo/composed.h) under a split traffic matrix — the extreme RTT-disparity
// regime of §2.3 pushed to WAN ratios. Intra-DC flows (each side's own
// matrix) draw from `workload`; cross-border flows draw from
// `inter_workload` (bulkier by default, like real WAN replication traffic).
// Sampled queues include the border ports, and border ports seed the
// base-RTT sketch with their WAN hint.
struct InterDcExperimentConfig : ExperimentCommon {
  InterDcExperimentConfig() { params = SimulationSchemeParams(); }
  const EmpiricalCdf* inter_workload = &DataMiningWorkload();
  // Fraction of `flows` crossing the border (validated in [0, 1], exit 2
  // outside). The remainder splits evenly across the two sides as intra-DC
  // traffic; the cross-border generator's load is defined against the
  // border aggregate capacity, each side's against its own fabric.
  double inter_fraction = 0.1;
  // The buffer policy also pools the two border gateways.
  ComposedConfig topo;
  // Per-host extra delay upper bound, drawn per side from seed+side so a
  // side's rng sequence matches its standalone single-fabric run.
  Time max_extra_delay = Time::FromMicroseconds(160);
};

struct ExperimentResult {
  FctSummary overall;
  FctSummary short_flows;  // < 100 KB
  FctSummary large_flows;  // > 10 MB
  std::size_t flows_started = 0;
  std::size_t flows_completed = 0;
  std::uint64_t timeouts = 0;
  QueueDiscStats bottleneck;
  double avg_queue_packets = 0.0;
  std::uint32_t max_queue_packets = 0;
  double sim_seconds = 0.0;
  // Dynamics accounting; all zero when the config carries no scenario.
  std::uint64_t scenario_actions = 0;    // occurrences that fired
  std::uint64_t incast_bursts = 0;       // kIncastBurst occurrences
  std::size_t burst_flows_started = 0;   // flows launched by bursts
  std::size_t burst_flows_completed = 0;
  std::uint64_t injected_drops = 0;      // LinkFaultInjector losses
  std::uint64_t injected_corruptions = 0;
  std::uint64_t link_down_drops = 0;     // arrivals at downed ports
  // Flight-recorder trace; null unless config.trace.enabled. Shared so
  // copying results (sweep collection) stays cheap.
  std::shared_ptr<const TraceRecorder> trace;
  // Sketch telemetry; null unless config.sketch.enabled.
  std::shared_ptr<const SketchTelemetry> sketch;
  // Per-controller splits, filled only for mixed-CC runs (cc_mix > 0).
  FctSummary cubic_fct;
  FctSummary newreno_fct;
  std::uint64_t cubic_bytes = 0;
  std::uint64_t newreno_bytes = 0;
  // Split traffic-matrix breakdown, filled only by RunInterDc (all counts
  // stay zero for the single-fabric runners). The intra_a/intra_b splits
  // carry exactly the flows of one side's generator — the reduction-parity
  // tests compare them against standalone single-fabric runs.
  FctSummary intra_fct;        // both sides' intra-DC flows
  FctSummary intra_short_fct;  // intra flows < 100 KB
  FctSummary inter_fct;        // cross-border flows
  FctSummary inter_short_fct;  // cross-border flows < 100 KB
  FctSummary intra_a_fct;      // side A's intra flows only
  FctSummary intra_b_fct;      // side B's intra flows only
  std::uint64_t intra_timeouts = 0;
  std::uint64_t inter_timeouts = 0;
};

ExperimentResult RunDumbbell(const DumbbellExperimentConfig& config);
ExperimentResult RunLeafSpine(const LeafSpineExperimentConfig& config);
ExperimentResult RunFatTree(const FatTreeExperimentConfig& config);
ExperimentResult RunInterDc(const InterDcExperimentConfig& config);

// ---------------------------------------------------------------------------
// Incast / microscopic-queue experiments: Figs. 10, 11.
// ---------------------------------------------------------------------------

struct IncastExperimentConfig {
  Scheme scheme = Scheme::kEcnSharp;
  SchemeParams params = SimulationSchemeParams();
  std::size_t senders = 16;
  // Long-lived background flows (data-mining-style elephants) that create
  // the standing queue.
  std::size_t long_flows = 6;
  // Query burst: `query_flows` concurrent flows, uniform size in
  // [query_min_bytes, query_max_bytes], all started at burst_time.
  std::size_t query_flows = 100;
  std::uint64_t query_min_bytes = 3000;
  std::uint64_t query_max_bytes = 60000;
  Time burst_time = Time::Milliseconds(150);
  double rtt_variation = 3.0;
  Time base_rtt = Time::FromMicroseconds(80);
  DataRate rate = DataRate::GigabitsPerSecond(10);
  std::uint64_t seed = 1;
  // ns-3-style initial window of 3 segments: a 100-flow synchronized burst
  // then peaks near (but within) a 600-packet buffer under instantaneous
  // marking, matching the §5.4 queue traces and loss crossovers.
  TcpConfig tcp = SmallInitialWindowTcp();
  Time queue_sample_period = Time::FromMicroseconds(10);
  Time max_sim_time = Time::Seconds(30);
  // Optional flight-recorder tracing of the bottleneck + query senders.
  TraceConfig trace;
  // Optional sketch telemetry on the bottleneck.
  SketchConfig sketch;

  static TcpConfig SmallInitialWindowTcp() {
    TcpConfig tcp;
    tcp.init_cwnd_segments = 3;
    return tcp;
  }
};

struct IncastResult {
  FctSummary query_fct;
  std::uint64_t query_timeouts = 0;
  // Overflow drops from the burst onward (startup transients of the
  // long-lived background flows are excluded).
  std::uint64_t drops = 0;
  std::uint64_t total_drops = 0;  // including background startup
  // Queue occupancy before the burst (standing queue) and its peak.
  double standing_queue_packets = 0.0;
  std::uint32_t max_queue_packets = 0;
  std::vector<QueueMonitor::Sample> queue_trace;
  std::size_t queries_completed = 0;
  // Flight-recorder trace; null unless config.trace.enabled.
  std::shared_ptr<const TraceRecorder> trace;
  // Sketch telemetry; null unless config.sketch.enabled.
  std::shared_ptr<const SketchTelemetry> sketch;
};

IncastResult RunIncast(const IncastExperimentConfig& config);

// ---------------------------------------------------------------------------
// Any experiment: one spec type, one entry point. Sweeps, the CLI and the
// JSON export all work on these.
// ---------------------------------------------------------------------------

using ExperimentConfig =
    std::variant<DumbbellExperimentConfig, LeafSpineExperimentConfig,
                 FatTreeExperimentConfig, InterDcExperimentConfig,
                 IncastExperimentConfig>;
// Fabric families yield an ExperimentResult, incast an IncastResult.
using ExperimentOutcome = std::variant<ExperimentResult, IncastResult>;

ExperimentOutcome RunExperiment(const ExperimentConfig& config);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_EXPERIMENT_H_

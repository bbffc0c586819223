#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "buffer/buffer_policy.h"
#include "harness/experiment.h"
#include "harness/schemes.h"
#include "harness/session.h"
#include "net/packet_pool.h"
#include "replays.h"
#include "sim/random.h"
#include "sketch/telemetry.h"
#include "topo/composed.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "topo/rtt_variation.h"
#include "workload/traffic_generator.h"

namespace perfbench {

using namespace ecnsharp;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workload configs. One config struct per workload feeds both the public
// runner and the from-pieces build below, so both run the same experiment.
// ---------------------------------------------------------------------------

DumbbellExperimentConfig DumbbellConfigFor(const RunSpec& spec) {
  // The paper's testbed: 7 senders at 10G, 70 us base RTT, RTT variation 3,
  // ECN# with the testbed parameters, websearch at 70% load.
  DumbbellExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.load = 0.7;
  config.flows = spec.flows;
  config.seed = spec.seed;
  return config;
}

FatTreeExperimentConfig FatTreeConfigFor(const RunSpec& spec) {
  // k=16: 1,024 hosts, 1,280 switch ports, ECN# with the simulation
  // parameters, websearch at 50% load.
  FatTreeExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.topo.k = 16;
  config.load = 0.5;
  config.flows = spec.flows;
  config.seed = spec.seed;
  return config;
}

// Churn on the inter-DC fabric: a repeated host-delay shift, an incast
// burst, a purging flap of the access link the burst converges on (so the
// purge always finds a backlog) and sketch-driven ECN# re-estimation. Times
// sit inside the traffic of a 1,000-flow run.
ScenarioScript ChurnScenario(std::uint64_t seed) {
  // Composed target ids: host NICs of both sides first, then side A's switch
  // ports, leaf 0's port to host 0 (the incast target) leading.
  const LeafSpineConfig side;
  const int incast_access_port =
      static_cast<int>(2 * side.leaves * side.hosts_per_leaf);
  ScenarioScript script;
  script.seed = seed;
  ScenarioAction shift;
  shift.kind = ScenarioActionKind::kSetHostDelay;
  shift.at = Time::Milliseconds(20);
  shift.target = 5;
  shift.delay_us = 20.0;
  shift.delay_hi_us = 200.0;
  shift.repeat = 6;
  shift.period = Time::Milliseconds(100);
  shift.jitter = Time::Milliseconds(5);
  script.actions.push_back(shift);
  ScenarioAction burst;
  burst.kind = ScenarioActionKind::kIncastBurst;
  burst.at = Time::Milliseconds(250);
  burst.flows = 32;
  burst.bytes = 20000;
  script.actions.push_back(burst);
  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::FromMicroseconds(250'200);
  down.target = incast_access_port;
  down.drop_queued = true;
  script.actions.push_back(down);
  ScenarioAction up;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = Time::Milliseconds(251);
  up.target = incast_access_port;
  script.actions.push_back(up);
  ScenarioAction reestimate;
  reestimate.kind = ScenarioActionKind::kReestimateEcnSharp;
  reestimate.at = Time::Milliseconds(300);
  reestimate.repeat = 2;
  reestimate.period = Time::Milliseconds(200);
  script.actions.push_back(reestimate);
  return script;
}

InterDcExperimentConfig InterDcConfigFor(const RunSpec& spec) {
  // Two CLI-default leaf-spine sides over 2 border links with a 2 ms border
  // RTT, 10% cross-border datamining flows, a Dynamic-Threshold shared
  // buffer per chip, sketch telemetry feeding ECN# re-estimation, and churn.
  InterDcExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.workload = &WebSearchWorkload();
  config.inter_workload = &DataMiningWorkload();
  config.inter_fraction = 0.1;
  config.topo.border_links = 2;
  config.topo.border_rate = DataRate::GigabitsPerSecond(10);
  config.topo.border_rtt = Time::Milliseconds(2);
  config.load = 0.5;
  config.flows = spec.flows;
  config.seed = spec.seed;
  config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
  config.sketch.enabled = true;
  config.estimator = EcnEstimator::kSketch;
  config.scenario = ChurnScenario(spec.seed);
  return config;
}

using DiscFactory = std::function<std::unique_ptr<QueueDisc>(BufferPolicy*)>;

// Topology construction exactly as the public runners derive it from their
// experiment configs.
std::unique_ptr<Topology> BuildTopology(WorkloadId id, const RunSpec& spec,
                                        Simulator& sim,
                                        const DiscFactory& make_disc) {
  switch (id) {
    case WorkloadId::kDumbbellWs70: {
      const DumbbellExperimentConfig config = DumbbellConfigFor(spec);
      DumbbellConfig topo;
      topo.senders = config.senders;
      topo.rate = config.rate;
      topo.base_rtt = config.base_rtt;
      topo.buffer_bytes = config.params.buffer_bytes;
      topo.tcp = config.tcp;
      topo.buffer_policy = config.buffer_policy;
      return std::make_unique<Dumbbell>(sim, topo, make_disc);
    }
    case WorkloadId::kFatTreeK16: {
      const FatTreeExperimentConfig config = FatTreeConfigFor(spec);
      FatTreeConfig topo = config.topo;
      topo.buffer_bytes = config.params.buffer_bytes;
      topo.buffer_policy = config.buffer_policy;
      return std::make_unique<FatTree>(sim, topo, make_disc);
    }
    case WorkloadId::kInterDcChurn: {
      const InterDcExperimentConfig config = InterDcConfigFor(spec);
      ComposedConfig topo = config.topo;
      topo.buffer_bytes = config.params.buffer_bytes;
      topo.buffer_policy = config.buffer_policy;
      for (ComposedSideConfig* side : {&topo.side_a, &topo.side_b}) {
        side->leaf_spine.buffer_bytes = config.params.buffer_bytes;
        side->leaf_spine.buffer_policy = config.buffer_policy;
        side->fat_tree.buffer_bytes = config.params.buffer_bytes;
        side->fat_tree.buffer_policy = config.buffer_policy;
      }
      return std::make_unique<ComposedTopology>(sim, topo, make_disc);
    }
  }
  return nullptr;
}

// Session fields every public runner copies from its experiment config.
template <typename Config>
ExperimentSessionConfig CommonSessionConfig(const Config& config) {
  ExperimentSessionConfig session;
  session.seed = config.seed;
  session.queue_sample_period = config.queue_sample_period;
  session.max_sim_time = config.max_sim_time;
  session.scenario = config.scenario;
  session.trace = config.trace;
  session.sketch = config.sketch;
  session.estimator = config.estimator;
  session.cc_mix = config.cc_mix;
  return session;
}

// Session config exactly as the public runners derive it.
ExperimentSessionConfig SessionConfigFor(WorkloadId id, const RunSpec& spec) {
  switch (id) {
    case WorkloadId::kDumbbellWs70: {
      const DumbbellExperimentConfig config = DumbbellConfigFor(spec);
      ExperimentSessionConfig session = CommonSessionConfig(config);
      session.workload = config.workload;
      session.load = config.load;
      session.flows = config.flows;
      session.rtt_assignment =
          ExperimentSessionConfig::RttAssignment::kQuantiles;
      session.max_rtt_extra = config.base_rtt * (config.rtt_variation - 1.0);
      session.rtt_profile = RttProfile::kTestbed;
      return session;
    }
    case WorkloadId::kFatTreeK16: {
      const FatTreeExperimentConfig config = FatTreeConfigFor(spec);
      ExperimentSessionConfig session = CommonSessionConfig(config);
      session.workload = config.workload;
      session.load = config.load;
      session.flows = config.flows;
      session.rtt_assignment =
          ExperimentSessionConfig::RttAssignment::kPerHostSample;
      session.max_rtt_extra = config.max_extra_delay;
      session.rtt_profile = RttProfile::kLeafSpine;
      return session;
    }
    case WorkloadId::kInterDcChurn: {
      // No session workload or RTT assignment: the split traffic matrix is
      // wired by hand after Bind, as RunInterDc does.
      ExperimentSessionConfig session =
          CommonSessionConfig(InterDcConfigFor(spec));
      session.rtt_assignment = ExperimentSessionConfig::RttAssignment::kNone;
      return session;
    }
  }
  return ExperimentSessionConfig();
}

SchemeParams ParamsFor(WorkloadId id, const RunSpec& spec) {
  switch (id) {
    case WorkloadId::kDumbbellWs70:
      return DumbbellConfigFor(spec).params;
    case WorkloadId::kFatTreeK16:
      return FatTreeConfigFor(spec).params;
    case WorkloadId::kInterDcChurn:
      return InterDcConfigFor(spec).params;
  }
  return SchemeParams();
}

// RunInterDc's hand-wired split traffic matrix: per-side extras and intra
// generators from Rng(seed + side), the cross-border generator from
// Rng(seed + 2), and the split collectors.
struct InterDcTraffic {
  FctCollector intra;
  FctCollector sides[2];
  FctCollector inter;
  std::unique_ptr<TrafficGenerator> generators[3];

  void Wire(const InterDcExperimentConfig& config, ComposedTopology& topo,
            ExperimentSession& session) {
    Simulator& sim = session.sim();
    const auto inter_flows = static_cast<std::size_t>(std::llround(
        config.inter_fraction * static_cast<double>(config.flows)));
    const std::size_t intra_flows = config.flows - inter_flows;
    const std::size_t side_flows[2] = {(intra_flows + 1) / 2, intra_flows / 2};
    FctCollector& collector = session.collector();
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
      generators[s] = std::make_unique<TrafficGenerator>(
          sim, *config.workload, traffic,
          [&topo, s](Rng& r) { return topo.SampleIntraPair(s, r); },
          [this, &collector, s](const FlowRecord& record) {
            collector.Record(record);
            intra.Record(record);
            sides[s].Record(record);
          },
          rng.Fork());
    }
    if (inter_flows > 0) {
      Rng rng(config.seed + 2);
      TrafficConfig traffic;
      traffic.load = config.load;
      traffic.reference_capacity = DataRate::BitsPerSecond(
          config.topo.border_rate.bps() *
          static_cast<std::int64_t>(config.topo.border_links));
      traffic.flow_count = inter_flows;
      traffic.cubic_fraction = config.cc_mix;
      generators[2] = std::make_unique<TrafficGenerator>(
          sim, *config.inter_workload, traffic,
          [&topo](Rng& r) { return topo.SampleInterPair(r); },
          [this, &collector](const FlowRecord& record) {
            collector.Record(record);
            inter.Record(record);
          },
          rng.Fork());
    }
  }

  void Start() {
    for (auto& generator : generators) {
      if (generator != nullptr) generator->Start();
    }
  }

  bool Pending() const {
    for (const auto& generator : generators) {
      if (generator != nullptr && !generator->AllDone()) return true;
    }
    return false;
  }

  void Finish(ExperimentResult& result) const {
    for (const auto& generator : generators) {
      if (generator == nullptr) continue;
      result.flows_started += generator->started();
      result.flows_completed += generator->completed();
    }
    result.intra_fct = intra.Overall();
    result.intra_short_fct = intra.ShortFlows();
    result.inter_fct = inter.Overall();
    result.inter_short_fct = inter.ShortFlows();
    result.intra_a_fct = sides[0].Overall();
    result.intra_b_fct = sides[1].Overall();
    result.intra_timeouts = intra.total_timeouts();
    result.inter_timeouts = inter.total_timeouts();
  }
};

// The simulated statistics a speed change must leave identical.
Json Digest(const ExperimentResult& r) {
  return Json::Object()
      .Set("flows_started", Json::UInt(r.flows_started))
      .Set("flows_completed", Json::UInt(r.flows_completed))
      .Set("hops", Json::UInt(r.bottleneck.dequeued))
      .Set("ce_marks", Json::UInt(r.bottleneck.ce_marked))
      .Set("drops", Json::UInt(r.bottleneck.dropped_overflow +
                               r.bottleneck.dropped_aqm))
      .Set("timeouts", Json::UInt(r.timeouts))
      .Set("sim_seconds", Json::Num(r.sim_seconds))
      .Set("p99_fct_us", Json::Num(r.overall.p99_us))
      .Set("short_p99_fct_us", Json::Num(r.short_flows.p99_us));
}

// The discs the factory built for each shared-buffer pool.
using DiscRegistry =
    std::unordered_map<const BufferPolicy*, std::vector<const QueueDisc*>>;

std::vector<SwitchNode*> Switches(Topology& topo) {
  std::vector<SwitchNode*> out;
  const auto add_fabric = [&out](Topology& t) {
    if (auto* ft = dynamic_cast<FatTree*>(&t)) {
      for (std::size_t i = 0; i < ft->edge_count(); ++i) {
        out.push_back(&ft->edge(i));
      }
      for (std::size_t i = 0; i < ft->agg_count(); ++i) {
        out.push_back(&ft->agg(i));
      }
      for (std::size_t i = 0; i < ft->core_count(); ++i) {
        out.push_back(&ft->core(i));
      }
    } else if (auto* ls = dynamic_cast<LeafSpine*>(&t)) {
      for (std::size_t i = 0; i < ls->leaf_count(); ++i) {
        out.push_back(&ls->leaf(i));
      }
      for (std::size_t i = 0; i < ls->spine_count(); ++i) {
        out.push_back(&ls->spine(i));
      }
    }
  };
  if (auto* d = dynamic_cast<Dumbbell*>(&topo)) {
    out.push_back(&d->switch_node());
  } else if (auto* c = dynamic_cast<ComposedTopology*>(&topo)) {
    add_fabric(c->side(0));
    add_fabric(c->side(1));
    out.push_back(&c->gateway(0));
    out.push_back(&c->gateway(1));
  } else {
    add_fabric(topo);
  }
  return out;
}

// Hosts whose NICs carry traffic (the dumbbell's receiver is not one of the
// flow-originating hosts but sends every ACK).
std::vector<Host*> Hosts(Topology& topo) {
  std::vector<Host*> out;
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    out.push_back(&topo.host(i));
  }
  if (auto* d = dynamic_cast<Dumbbell*>(&topo)) {
    out.push_back(&d->receiver_host());
  }
  return out;
}

// The topology's bottleneck ports, resolved once (Topology::bottleneck(i)
// walks the switch list on fabrics).
std::vector<EgressPort*> Bottlenecks(Topology& topo) {
  std::vector<EgressPort*> out;
  out.reserve(topo.bottleneck_count());
  for (std::size_t b = 0; b < topo.bottleneck_count(); ++b) {
    out.push_back(&topo.bottleneck(b));
  }
  return out;
}

// The conservation invariants, checkable at any event boundary.
void CheckInvariants(Topology& topo,
                     const std::vector<EgressPort*>& bottlenecks,
                     const DiscRegistry& registry, const char* when,
                     std::vector<std::string>& errors) {
  constexpr std::size_t kMaxErrors = 8;
  for (std::size_t b = 0; b < bottlenecks.size(); ++b) {
    const QueueDisc& disc = bottlenecks[b]->queue_disc();
    const QueueDiscStats& s = disc.stats();
    const std::uint64_t queued = disc.Snapshot().packets;
    if (s.enqueued != s.dequeued + s.purged + queued &&
        errors.size() < kMaxErrors) {
      errors.push_back(std::string(when) + ": bottleneck " + std::to_string(b) +
                       " enqueued " + std::to_string(s.enqueued) +
                       " != dequeued " + std::to_string(s.dequeued) +
                       " + purged " + std::to_string(s.purged) + " + queued " +
                       std::to_string(queued));
    }
  }
  for (std::size_t p = 0; p < topo.buffer_pool_count(); ++p) {
    const BufferPolicy* pool = topo.buffer_pool(p);
    if (pool == nullptr) continue;
    const auto it = registry.find(pool);
    std::size_t discs = 0;
    std::uint64_t bytes = 0;
    if (it != registry.end()) {
      discs = it->second.size();
      for (const QueueDisc* disc : it->second) bytes += disc->Snapshot().bytes;
    }
    if (discs != pool->queue_count()) {
      if (errors.size() < kMaxErrors) {
        errors.push_back(std::string(when) + ": pool " + std::to_string(p) +
                         " has " + std::to_string(pool->queue_count()) +
                         " queues but the factory built " +
                         std::to_string(discs) + " discs for it");
      }
      continue;
    }
    if (bytes != pool->used_bytes() && errors.size() < kMaxErrors) {
      errors.push_back(std::string(when) + ": pool " + std::to_string(p) +
                       " used_bytes " + std::to_string(pool->used_bytes()) +
                       " != queued bytes " + std::to_string(bytes));
    }
  }
}

// Traced runs only: a periodic probe sampling the pending-set size, the depth
// of busy bottleneck queues and pool occupancy, and checking the invariants
// mid-run. It adds events but changes no simulated outcome (events at equal
// times keep their relative order); the digest check proves that.
struct Probe {
  Simulator* sim = nullptr;
  Topology* topo = nullptr;
  const std::vector<EgressPort*>* bottlenecks = nullptr;
  const DiscRegistry* registry = nullptr;
  std::vector<std::string>* errors = nullptr;
  Time period;
  std::uint64_t fires = 0;
  double pending_sum = 0.0;
  double depth_sum = 0.0;
  std::uint64_t busy_queues = 0;
  double occupancy_sum = 0.0;
  std::uint64_t occupancy_samples = 0;

  void Fire() {
    ++fires;
    pending_sum += static_cast<double>(sim->live_events());
    for (const EgressPort* port : *bottlenecks) {
      const std::uint32_t packets = port->queue_disc().Snapshot().packets;
      if (packets > 0) {
        depth_sum += packets;
        ++busy_queues;
      }
    }
    for (std::size_t p = 0; p < topo->buffer_pool_count(); ++p) {
      const BufferPolicy* pool = topo->buffer_pool(p);
      if (pool == nullptr || pool->total_bytes() == 0) continue;
      occupancy_sum += static_cast<double>(pool->used_bytes()) /
                       static_cast<double>(pool->total_bytes());
      ++occupancy_samples;
    }
    CheckInvariants(*topo, *bottlenecks, *registry, "mid-run", *errors);
    sim->Schedule(period, [this] { Fire(); });
  }
};

// Per-workload shape constants the replays need beyond the run's counts.
struct ReplayShape {
  Time probe_period;     // traced probe interval (about 400 per instance)
  DataRate rate;         // link rate
  Time link_delay;       // per-hop propagation
  Time other_max_delay;  // spread of non-port events (timers, host delays)
};

ReplayShape ShapeOf(WorkloadId id) {
  switch (id) {
    case WorkloadId::kDumbbellWs70:
      // Per-hop delay base_rtt/4; extras up to 2 x 70 us.
      return {Time::Milliseconds(4), DataRate::GigabitsPerSecond(10),
              Time::FromMicroseconds(17.5), Time::FromMicroseconds(420)};
    case WorkloadId::kFatTreeK16:
      return {Time::FromMicroseconds(200), DataRate::GigabitsPerSecond(10),
              Time::FromMicroseconds(10), Time::FromMicroseconds(560)};
    case WorkloadId::kInterDcChurn:
      return {Time::Milliseconds(2), DataRate::GigabitsPerSecond(10),
              Time::FromMicroseconds(10), Time::Milliseconds(4)};
  }
  return {};
}

// Egress discs of the forwarding replay's topology copy: every packet is
// dropped at once, so HandlePacket's cost is the lookup, the ECMP choice and
// the port hand-off.
class DiscardDisc final : public QueueDisc {
 public:
  bool Enqueue(std::unique_ptr<Packet> pkt, Time /*now*/) override {
    pkt.reset();
    ++stats_.dropped_overflow;
    return false;
  }
  std::unique_ptr<Packet> Dequeue(Time /*now*/) override { return nullptr; }
  std::uint32_t PurgeAll(Time /*now*/) override { return 0; }
  QueueSnapshot Snapshot() const override { return QueueSnapshot{}; }
};

// Peak resident set of this process image (VmHWM). Unlike getrusage's
// ru_maxrss it is not inherited from the parent across fork + exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t Scaled(std::uint64_t ops, double scale) {
  return std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(static_cast<double>(ops) * scale));
}

// Counts read after the run phase, before teardown.
struct RunCounts {
  std::uint64_t events = 0;
  std::uint64_t hops = 0;            // bottleneck dequeues
  std::uint64_t forwards = 0;        // SwitchNode arrivals
  std::uint64_t port_packets = 0;    // transmissions, switch ports + NICs
  std::uint64_t enqueued = 0;
  std::uint64_t ce_marked = 0;
  std::uint64_t dropped = 0;
  std::uint64_t purged = 0;
  std::uint64_t pool_overflow_drops = 0;
  std::uint64_t admissions = 0;      // pooled enqueue attempts
  std::uint64_t flows = 0;           // flow rows across all stacks
  std::size_t max_stack_flows = 0;
  std::uint64_t acks = 0;            // derived, see below
  std::uint64_t sketch_packets = 0;
  std::size_t bottlenecks = 0;
  std::vector<double> switch_arrivals;
  double ports_per_pool = 0.0;
};

RunCounts CountRun(Topology& topo, const std::vector<EgressPort*>& bottlenecks,
                   ExperimentSession& session, const DiscRegistry& registry,
                   std::uint64_t probe_events) {
  RunCounts c;
  c.events = session.sim().events_executed() - probe_events;
  c.bottlenecks = bottlenecks.size();
  for (const EgressPort* port : bottlenecks) {
    const QueueDiscStats& s = port->queue_disc().stats();
    c.hops += s.dequeued;
    c.enqueued += s.enqueued;
    c.ce_marked += s.ce_marked;
    c.dropped += s.dropped_overflow + s.dropped_aqm;
    c.purged += s.purged;
    c.port_packets += port->counters().tx_packets;
  }
  for (Host* host : Hosts(topo)) {
    c.port_packets += host->nic().counters().tx_packets;
  }
  for (SwitchNode* sw : Switches(topo)) {
    c.forwards += sw->rx_packets();
    c.switch_arrivals.push_back(static_cast<double>(sw->rx_packets()));
  }
  std::size_t pooled = 0;
  for (const auto& [pool, discs] : registry) {
    for (const QueueDisc* disc : discs) {
      ++pooled;
      c.pool_overflow_drops += disc->stats().dropped_overflow;
      c.admissions += disc->stats().enqueued + disc->stats().dropped_overflow;
    }
  }
  if (topo.buffer_pool_count() > 0) {
    c.ports_per_pool = static_cast<double>(pooled) /
                       static_cast<double>(topo.buffer_pool_count());
  }
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    const std::size_t n = topo.stack(i).flow_hot_state().flow_count();
    c.flows += n;
    c.max_stack_flows = std::max(c.max_stack_flows, n);
  }
  // No accessor counts ACKs; derive them from the completed flows: one ACK
  // per delayed_ack_count data segments (retransmissions not counted).
  const std::uint32_t per_ack =
      std::max<std::uint32_t>(1, TcpConfig().delayed_ack_count);
  for (const FctCollector::Sample& s : session.collector().samples()) {
    const std::uint64_t segments =
        (s.size_bytes + kMaxSegmentSize - 1) / kMaxSegmentSize;
    c.acks += (segments + per_ack - 1) / per_ack;
  }
  if (session.sketch() != nullptr) {
    c.sketch_packets = session.sketch()->packets_observed();
  }
  return c;
}

// Flow keys shaped like the workload's: pairs drawn by the topology's own
// sampler, source ports numbered per host the way TcpStack assigns them.
std::vector<FlowKey> FlowPopulation(Topology& topo, std::size_t flows,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FlowKey> keys;
  std::vector<std::uint16_t> next_port;
  for (std::size_t f = 0; f < std::max<std::size_t>(1, flows); ++f) {
    const auto [stack, dst] = topo.SampleFlowPair(rng);
    const std::uint32_t src = stack->host().address();
    if (src >= next_port.size()) next_port.resize(src + 1, 1);
    keys.push_back(FlowKey{src, dst, next_port[src]++, 80});
  }
  return keys;
}

}  // namespace

const char* WorkloadName(WorkloadId id) {
  switch (id) {
    case WorkloadId::kDumbbellWs70:
      return "dumbbell_ws70";
    case WorkloadId::kFatTreeK16:
      return "fattree_k16";
    case WorkloadId::kInterDcChurn:
      return "interdc_churn";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, WorkloadId* out) {
  for (WorkloadId id : kAllWorkloads) {
    if (name == WorkloadName(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

Json RunPublic(const RunSpec& spec) {
  ExperimentResult result;
  switch (spec.workload) {
    case WorkloadId::kDumbbellWs70:
      result = RunDumbbell(DumbbellConfigFor(spec));
      break;
    case WorkloadId::kFatTreeK16:
      result = RunFatTree(FatTreeConfigFor(spec));
      break;
    case WorkloadId::kInterDcChurn:
      result = RunInterDc(InterDcConfigFor(spec));
      break;
  }
  return Json::Object().Set("digest", Digest(result));
}

Json RunFromPieces(const RunSpec& spec) {
  const WorkloadId id = spec.workload;
  PacketPool& packet_pool = ThreadLocalPacketPool();
  const std::uint64_t allocations_before = packet_pool.total_allocations();
  const std::uint64_t fresh_before = packet_pool.fresh_allocations();
  const auto live_before = static_cast<std::int64_t>(fresh_before) -
                           static_cast<std::int64_t>(packet_pool.free_blocks());
  std::vector<std::string> errors;

  const SchemeParams params = ParamsFor(id, spec);
  const Scheme scheme = Scheme::kEcnSharp;
  DiscRegistry registry;
  const DiscFactory make_disc = [&registry, &params,
                                 scheme](BufferPolicy* pool) {
    std::unique_ptr<QueueDisc> disc = MakeFifoDisc(scheme, params, pool);
    if (pool != nullptr) registry[pool].push_back(disc.get());
    return disc;
  };

  // --- Setup: first call to the first dispatched event. -------------------
  const Clock::time_point t_start = Clock::now();
  auto session =
      std::make_unique<ExperimentSession>(SessionConfigFor(id, spec));
  const Clock::time_point t_session = Clock::now();
  std::unique_ptr<Topology> topo =
      BuildTopology(id, spec, session->sim(), make_disc);
  const Clock::time_point t_built = Clock::now();
  session->Bind(*topo);
  std::unique_ptr<InterDcTraffic> interdc;
  if (id == WorkloadId::kInterDcChurn) {
    interdc = std::make_unique<InterDcTraffic>();
    interdc->Wire(InterDcConfigFor(spec),
                  static_cast<ComposedTopology&>(*topo), *session);
  }
  const Clock::time_point t_bound = Clock::now();
  const std::vector<EgressPort*> bottlenecks = Bottlenecks(*topo);

  Probe probe;
  const ReplayShape shape = ShapeOf(id);
  if (spec.traced) {
    probe.sim = &session->sim();
    probe.topo = topo.get();
    probe.bottlenecks = &bottlenecks;
    probe.registry = &registry;
    probe.errors = &errors;
    probe.period = shape.probe_period;
    session->sim().Schedule(shape.probe_period, [&probe] { probe.Fire(); });
  }

  // --- Run phase. ---------------------------------------------------------
  const Clock::time_point t_run = Clock::now();
  if (interdc != nullptr) {
    interdc->Start();
    session->Run([&interdc] { return interdc->Pending(); });
  } else {
    session->Run();
  }
  const Clock::time_point t_ran = Clock::now();
  ExperimentResult result = session->Result();
  if (interdc != nullptr) interdc->Finish(result);
  const Clock::time_point t_result = Clock::now();

  CheckInvariants(*topo, bottlenecks, registry, "end of run", errors);
  if (result.flows_completed != result.flows_started) {
    errors.push_back("only " + std::to_string(result.flows_completed) + " of " +
                     std::to_string(result.flows_started) +
                     " started flows completed");
  }
  const RunCounts counts =
      CountRun(*topo, bottlenecks, *session, registry, probe.fires);
  const double peak_rss_mb = PeakRssMb();
  const std::vector<FlowKey> flow_keys =
      spec.traced ? FlowPopulation(*topo, spec.flows, spec.seed)
                  : std::vector<FlowKey>();

  // --- Teardown and the packet-leak check. --------------------------------
  const Clock::time_point t_teardown = Clock::now();
  interdc.reset();
  topo.reset();
  session.reset();
  const Clock::time_point t_done = Clock::now();
  // Before the replays, which allocate packets of their own.
  const std::uint64_t allocations =
      packet_pool.total_allocations() - allocations_before;
  const std::uint64_t fresh = packet_pool.fresh_allocations() - fresh_before;
  const auto live_after =
      static_cast<std::int64_t>(packet_pool.fresh_allocations()) -
      static_cast<std::int64_t>(packet_pool.free_blocks());
  if (live_after != live_before) {
    errors.push_back("packet leak: " +
                     std::to_string(live_after - live_before) +
                     " packets still allocated after teardown");
  }

  const double setup_s = SecondsBetween(t_start, t_bound);
  const double run_s = SecondsBetween(t_run, t_ran);
  Json errors_json = Json::Array();
  for (const std::string& e : errors) errors_json.Push(Json::Str(e));
  Json report =
      Json::Object()
          .Set("workload", Json::Str(WorkloadName(id)))
          .Set("seed", Json::UInt(spec.seed))
          .Set("flows", Json::UInt(spec.flows))
          .Set("setup_s", Json::Num(setup_s))
          .Set("run_s", Json::Num(run_s))
          .Set("sim_seconds", Json::Num(result.sim_seconds))
          .Set("peak_rss_mb", Json::Num(peak_rss_mb))
          .Set("hops", Json::UInt(counts.hops))
          .Set("flows_started", Json::UInt(result.flows_started))
          .Set("flows_completed", Json::UInt(result.flows_completed))
          .Set("digest", Digest(result))
          .Set("invariant_errors", std::move(errors_json));
  if (!spec.traced) return report;

  // --- Traced run: spans, counts and per-layer replays. -------------------
  const double events = static_cast<double>(counts.events);
  EngineShape engine;
  engine.pending = static_cast<std::size_t>(std::llround(
      probe.fires > 0 ? probe.pending_sum / static_cast<double>(probe.fires)
                      : 64.0));
  engine.pinned_share =
      events > 0.0
          ? std::min(1.0, 2.0 * static_cast<double>(counts.port_packets) / events)
          : 0.5;
  engine.tx_delay = shape.rate.TransmissionTime(kFullPacketBytes);
  engine.wire_delay = shape.link_delay;
  engine.other_max_delay = shape.other_max_delay;
  const double depth =
      probe.busy_queues > 0
          ? probe.depth_sum / static_cast<double>(probe.busy_queues)
          : 1.0;
  const double occupancy =
      probe.occupancy_samples > 0
          ? probe.occupancy_sum / static_cast<double>(probe.occupancy_samples)
          : 0.0;
  const double ce_share =
      counts.enqueued > 0 ? static_cast<double>(counts.ce_marked) /
                                static_cast<double>(counts.enqueued)
                          : 0.0;
  const double scale = spec.replay_scale;

  const double sim_ns = EngineNsPerEvent(engine, Scaled(2'000'000, scale));
  // The port train's own events are charged to the engine term; its
  // self cost excludes them at the engine's cost for a tiny pending set.
  EngineShape tiny = engine;
  tiny.pending = 2;
  tiny.pinned_share = 1.0;
  const double tiny_ns = EngineNsPerEvent(tiny, Scaled(1'000'000, scale));
  double port_events_per_packet = 0.0;
  const double port_ns = PortNsPerPacket(
      shape.rate, shape.link_delay,
      static_cast<std::size_t>(std::llround(std::max(1.0, depth))),
      Scaled(1'000'000, scale), &port_events_per_packet);
  const double port_self_ns =
      std::max(0.0, port_ns - port_events_per_packet * tiny_ns);
  const double disc_ns = DiscNsPerPacket(
      scheme, params, static_cast<std::size_t>(std::llround(depth)),
      Scaled(2'000'000, scale));
  const double admission_ns = AdmissionNsPerPacket(
      static_cast<std::size_t>(
          std::llround(std::max(1.0, counts.ports_per_pool))),
      occupancy, Scaled(2'000'000, scale));
  const double ack_ns =
      AckNsPerAck(std::max<std::size_t>(1, counts.max_stack_flows), ce_share,
                  Scaled(500'000, scale));
  const double sketch_ns = SketchNsPerPacket(counts.bottlenecks, flow_keys,
                                             Scaled(1'000'000, scale));
  double forward_ns = 0.0;
  {
    Simulator copy_sim;
    std::unique_ptr<Topology> copy = BuildTopology(
        id, spec, copy_sim,
        [](BufferPolicy*) { return std::make_unique<DiscardDisc>(); });
    forward_ns = ForwardNsPerPacket(Switches(*copy), counts.switch_arrivals,
                                    flow_keys, Scaled(1'000'000, scale));
  }

  const double explained_ns =
      events * sim_ns + static_cast<double>(counts.forwards) * forward_ns +
      static_cast<double>(counts.port_packets) * port_self_ns +
      static_cast<double>(counts.enqueued) * disc_ns +
      static_cast<double>(counts.admissions) * admission_ns +
      static_cast<double>(counts.acks) * ack_ns +
      static_cast<double>(counts.sketch_packets) * sketch_ns;

  Json layers =
      Json::Object()
          .Set("topo.build_s", Json::Num(SecondsBetween(t_session, t_built)))
          .Set("harness.bind_s",
               Json::Num(SecondsBetween(t_start, t_session) +
                         SecondsBetween(t_built, t_bound)))
          .Set("harness.run_s", Json::Num(run_s))
          .Set("harness.teardown_s",
               Json::Num(SecondsBetween(t_teardown, t_done)))
          .Set("stats.result_s", Json::Num(SecondsBetween(t_ran, t_result)))
          .Set("sim.events", Json::UInt(counts.events))
          .Set("sim.events_per_hop",
               Json::Num(counts.hops > 0
                             ? events / static_cast<double>(counts.hops)
                             : 0.0))
          .Set("sim.pending_mean", Json::UInt(engine.pending))
          .Set("sim.ns_per_event", Json::Num(sim_ns))
          .Set("net.hops", Json::UInt(counts.hops))
          .Set("net.switch.forwards", Json::UInt(counts.forwards))
          .Set("net.switch.ns_per_forward", Json::Num(forward_ns))
          .Set("net.port.packets", Json::UInt(counts.port_packets))
          .Set("net.port.ns_per_packet", Json::Num(port_self_ns))
          .Set("net.packets_allocated", Json::UInt(allocations))
          .Set("net.packets_fresh", Json::UInt(fresh))
          .Set("sched.enqueued", Json::UInt(counts.enqueued))
          .Set("sched.depth_mean", Json::Num(depth))
          .Set("sched.ns_per_packet", Json::Num(disc_ns))
          .Set("aqm.ce_marked", Json::UInt(counts.ce_marked))
          .Set("aqm.dropped", Json::UInt(counts.dropped))
          .Set("buffer.overflow_drops", Json::UInt(counts.pool_overflow_drops))
          .Set("buffer.occupancy", Json::Num(occupancy))
          .Set("buffer.ns_per_admission", Json::Num(admission_ns))
          .Set("transport.flows", Json::UInt(counts.flows))
          .Set("transport.timeouts", Json::UInt(result.timeouts))
          .Set("transport.acks", Json::UInt(counts.acks))
          .Set("transport.ns_per_ack", Json::Num(ack_ns))
          .Set("sketch.packets", Json::UInt(counts.sketch_packets))
          .Set("sketch.ns_per_packet", Json::Num(sketch_ns))
          .Set("dynamics.actions", Json::UInt(result.scenario_actions))
          .Set("dynamics.purged", Json::UInt(counts.purged))
          .Set("layers.explained_share",
               Json::Num(run_s > 0.0 ? explained_ns * 1e-9 / run_s : 0.0));
  report.Set("layers", std::move(layers));
  return report;
}

}  // namespace perfbench

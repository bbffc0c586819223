// Topology: the composable-experiment interface every concrete topology
// (Dumbbell, LeafSpine, ...) implements.
//
// The experiment layer (harness/session.h) is written entirely against this
// interface: it wires the open-loop TrafficGenerator through
// SampleFlowPair/ReferenceCapacity, installs RTT extras on the enumerated
// hosts, points a QueueMonitor at every bottleneck, resolves scenario-script
// port ids through ResolvePort, launches incast bursts at IncastTarget, and
// re-derives ECN# thresholds from the HostBaseRtt distribution. Adding a
// topology therefore makes dynamics, monitoring, and the uniform
// ExperimentResult metrics available on it for free — see
// docs/extending.md ("Adding a topology").
#ifndef ECNSHARP_TOPO_TOPOLOGY_H_
#define ECNSHARP_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/egress_port.h"
#include "net/host.h"
#include "net/queue_disc.h"
#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/time.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {

class BufferPolicy;

class Topology {
 public:
  virtual ~Topology() = default;

  // --- Flow-originating hosts -------------------------------------------
  // Hosts that can source traffic (the dumbbell excludes its receiver).
  virtual std::size_t host_count() const = 0;
  virtual Host& host(std::size_t i) = 0;
  virtual TcpStack& stack(std::size_t i) = 0;
  // Base RTT of host i's flows, including its current netem-style extra
  // delay — the quantity ECN# re-estimation feeds into the §3.4
  // rule-of-thumb.
  virtual Time HostBaseRtt(std::size_t i) const = 0;
  // Appends the base-RTT population (in microseconds) ECN# re-estimation
  // derives its thresholds from. The default is one sample per host; a
  // topology whose traffic matrix includes paths longer than any single
  // host's fabric path (e.g. the inter-DC border of topo/composed.h)
  // overrides this to represent those paths in the distribution.
  virtual void AppendRttSamplesUs(std::vector<double>& rtts_us) const;

  // --- Open-loop workload wiring ----------------------------------------
  // Capacity a load factor refers to: the bottleneck rate for a dumbbell,
  // the aggregate access-link rate for a fabric.
  virtual DataRate ReferenceCapacity() const = 0;
  // Draws one (sending stack, destination address) pair. Implementations
  // must consume a fixed number of rng draws per call so runs stay
  // seed-deterministic.
  virtual std::pair<TcpStack*, std::uint32_t> SampleFlowPair(Rng& rng) = 0;

  // --- Incast bursts (scenario kIncastBurst) ----------------------------
  // Address burst flows converge on, and the k-th burst sender (k counts
  // monotonically across bursts; implementations typically round-robin).
  virtual std::uint32_t IncastTarget() const = 0;
  virtual TcpStack& IncastSender(std::size_t k) = 0;

  // --- Scenario port targeting ------------------------------------------
  // Resolves a ScenarioAction target id to a port, or null for unknown ids
  // (the action is then ignored). Convention shared by all topologies:
  // -1 is the primary bottleneck, 0..host_count-1 are host NICs; ids from
  // host_count upward are topology-defined (the leaf-spine exposes every
  // switch egress port — see leaf_spine.h).
  virtual EgressPort* ResolvePort(int target) = 0;
  // One-line description of the valid target-id space, used in the
  // fail-fast diagnostic when a scenario names a target ResolvePort cannot
  // resolve. Override to document topology-specific port ids.
  virtual std::string DescribePortTargets() const;

  // --- Instrumented (AQM-under-test) queues -----------------------------
  // The queues experiments monitor and whose drop/mark totals the result
  // reports: the single receiver-facing port for a dumbbell, every switch
  // egress port for a fabric.
  virtual std::size_t bottleneck_count() const = 0;
  virtual EgressPort& bottleneck(std::size_t i) = 0;
  // Every bottleneck port, in bottleneck order. Fabrics resolve
  // bottleneck(i) by walking their switch list, so a loop over every
  // bottleneck should resolve them once through this.
  std::vector<EgressPort*> BottleneckPorts();

  // --- Shared-buffer pools ----------------------------------------------
  // Buffer policies owned by the topology (one per switch chip when a
  // policy is configured); none for statically buffered topologies. Exposed
  // so tests can check accounting invariants and benches can report
  // occupancy.
  virtual std::size_t buffer_pool_count() const { return 0; }
  virtual BufferPolicy* buffer_pool(std::size_t /*i*/) { return nullptr; }

  // --- Accounting --------------------------------------------------------
  // Sum of QueueDiscStats over the bottleneck set (total drop/mark
  // accounting for the result's `bottleneck` field).
  QueueDiscStats TotalBottleneckStats();
  // Packets that arrived at any downed port, across every port of the
  // topology (including host NICs).
  virtual std::uint64_t TotalLinkDownDrops() const = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_TOPOLOGY_H_

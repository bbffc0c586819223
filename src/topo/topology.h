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
//
// A concrete topology only builds its wiring and fills the flat tables
// below once, in its constructor; it keeps ownership of every node, port
// and pool. Enumeration, sampling and accounting are answered from those
// tables here, the same way for every topology.
#ifndef ECNSHARP_TOPO_TOPOLOGY_H_
#define ECNSHARP_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/egress_port.h"
#include "net/host.h"
#include "net/queue_disc.h"
#include "net/switch_node.h"
#include "sim/data_rate.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {

class BufferPolicy;

class Topology {
 public:
  virtual ~Topology() = default;

  // --- Flow-originating hosts -------------------------------------------
  // Hosts that can source traffic (the dumbbell excludes its receiver).
  std::size_t host_count() const { return tables_.hosts.size(); }
  Host& host(std::size_t i) { return *tables_.hosts.at(i); }
  TcpStack& stack(std::size_t i) { return *tables_.stacks.at(i); }
  // Base RTT of host i's flows, including its current netem-style extra
  // delay — the quantity ECN# re-estimation feeds into the §3.4
  // rule-of-thumb.
  Time HostBaseRtt(std::size_t i) const {
    return tables_.host_rtts.at(i) + tables_.hosts[i]->extra_egress_delay();
  }
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
  // seed-deterministic. The default draws a uniform source host, then a
  // uniform destination host != source (two draws).
  virtual std::pair<TcpStack*, std::uint32_t> SampleFlowPair(Rng& rng);

  // --- Incast bursts (scenario kIncastBurst) ----------------------------
  // Address burst flows converge on, and the k-th burst sender (k counts
  // monotonically across bursts). The default converges on host 0 from
  // the remaining hosts, round-robin.
  virtual std::uint32_t IncastTarget() const;
  virtual TcpStack& IncastSender(std::size_t k);

  // --- Scenario port targeting ------------------------------------------
  // Resolves a ScenarioAction target id to a port, or null for unknown ids
  // (the action is then ignored). The default: -1 is the primary port,
  // 0..host_count-1 are host NICs, host_count.. are the bottlenecks in
  // bottleneck order (the fabrics expose every switch egress port — see
  // leaf_spine.h), then null.
  virtual EgressPort* ResolvePort(int target);
  // One-line description of the valid target-id space, used in the
  // fail-fast diagnostic when a scenario names a target ResolvePort cannot
  // resolve. Override to document topology-specific port ids.
  virtual std::string DescribePortTargets() const;

  // --- Instrumented (AQM-under-test) queues -----------------------------
  // The queues experiments monitor and whose drop/mark totals the result
  // reports: the single receiver-facing port for a dumbbell, every switch
  // egress port for a fabric.
  std::size_t bottleneck_count() const { return tables_.bottlenecks.size(); }
  EgressPort& bottleneck(std::size_t i) { return *tables_.bottlenecks.at(i); }

  // --- Shared-buffer pools ----------------------------------------------
  // Buffer policies owned by the topology (one per switch chip when a
  // policy is configured); none for statically buffered topologies. Exposed
  // so tests can check accounting invariants and benches can report
  // occupancy. Null past the end.
  std::size_t buffer_pool_count() const { return tables_.pools.size(); }
  BufferPolicy* buffer_pool(std::size_t i) {
    return i < tables_.pools.size() ? tables_.pools[i] : nullptr;
  }

  // --- Accounting --------------------------------------------------------
  // Sum of QueueDiscStats over the bottleneck set (total drop/mark
  // accounting for the result's `bottleneck` field).
  QueueDiscStats TotalBottleneckStats() const;
  // Packets that arrived at a downed host NIC or bottleneck port.
  std::uint64_t TotalLinkDownDrops() const;

 protected:
  // Non-owning views of the concrete topology's nodes, filled once by its
  // constructor.
  struct Tables {
    std::vector<Host*> hosts;  // flow-originating hosts, in host order
    std::vector<TcpStack*> stacks;
    // Path base RTT of each host's flows, without its extra delay.
    std::vector<Time> host_rtts;
    // Switches in flattening order; IndexSwitchPorts derives the
    // bottleneck table from it.
    std::vector<SwitchNode*> switches;
    std::vector<EgressPort*> bottlenecks;
    std::vector<BufferPolicy*> pools;
    EgressPort* primary_port = nullptr;  // scenario target -1
  };

  // Registers a flow-originating host.
  void AddHost(Host& host, TcpStack& stack, Time path_rtt);
  // Rebuilds `topo`'s bottleneck table as every egress port of its
  // switches, switch by switch in port order. Static so a composed
  // topology can re-index a part after wiring extra ports into it.
  static void IndexSwitchPorts(Topology& topo);
  // Appends `part`'s hosts, switches and pools to this topology's tables.
  void AppendTables(const Topology& part);

  // Builds one host on `sim` and its access link to `tor`: the host's FIFO
  // NIC toward the ToR, the ToR's down port running make_down_disc(pool),
  // the ToR's one-address route block to the host, and the host's
  // TcpStack. The host and stack are appended to the owning vectors;
  // returns the down port.
  struct AccessLink {
    DataRate rate;
    Time delay;
    std::uint64_t nic_buffer_bytes;
    const TcpConfig& tcp;
  };
  static EgressPort& BuildAccessHost(
      Simulator& sim, SwitchNode& tor, std::uint32_t address,
      const AccessLink& link, const DiscFactory& make_down_disc,
      BufferPolicy* pool, std::vector<std::unique_ptr<Host>>& hosts,
      std::vector<std::unique_ptr<TcpStack>>& stacks);

  Tables tables_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_TOPOLOGY_H_

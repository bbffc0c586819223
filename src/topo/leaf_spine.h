// Leaf-spine datacenter fabric with per-flow ECMP — the paper's large-scale
// simulation topology (§5.3): 8 spine switches, 8 leaf switches, 16 hosts
// per leaf, all links 10 Gbps (2:1 oversubscription at the leaves).
#ifndef ECNSHARP_TOPO_LEAF_SPINE_H_
#define ECNSHARP_TOPO_LEAF_SPINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/policy_spec.h"
#include "net/host.h"
#include "net/switch_node.h"
#include "sim/data_rate.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "transport/tcp_stack.h"

namespace ecnsharp {

struct LeafSpineConfig {
  std::size_t spines = 8;
  std::size_t leaves = 8;
  std::size_t hosts_per_leaf = 16;
  // First host address. Standalone fabrics keep 0; a composed topology
  // (topo/composed.h) offsets the second side so the two address spaces are
  // disjoint and border switches can route on contiguous ranges.
  std::uint32_t base_address = 0;
  DataRate rate = DataRate::GigabitsPerSecond(10);
  // Propagation per host<->leaf hop and per leaf<->spine hop. With 10 us
  // each, the cross-rack base RTT is ~80 us (the §5.3 minimum).
  Time host_link_delay = Time::FromMicroseconds(10);
  Time spine_link_delay = Time::FromMicroseconds(10);
  std::uint64_t buffer_bytes = 600ull * kFullPacketBytes;
  std::uint64_t host_buffer_bytes = 64ull * 1024 * 1024;
  TcpConfig tcp;
  // Optional shared-buffer policy, one pool per switch chip (every leaf and
  // every spine). kNone keeps the legacy static per-port buffers.
  BufferPolicyConfig buffer_policy;
};

class LeafSpine : public Topology {
 public:
  // `make_disc` builds the queue disc for every switch egress port (the AQM
  // under test runs fabric-wide, as in the paper's simulations).
  LeafSpine(Simulator& sim, const LeafSpineConfig& config,
            const DiscFactory& make_disc);

  SwitchNode& leaf(std::size_t i) { return *leaves_.at(i); }
  SwitchNode& spine(std::size_t i) { return *spines_.at(i); }
  std::size_t leaf_count() const { return leaves_.size(); }
  std::size_t spine_count() const { return spines_.size(); }

  std::size_t LeafOfHost(std::size_t host_index) const {
    return host_index / config_.hosts_per_leaf;
  }

  // --- Topology interface ------------------------------------------------
  // Every host originates flows; its path RTT is the cross-rack one (two
  // host hops + two fabric hops each way). Flow pairs and incast use the
  // Topology defaults. Every switch egress port is a bottleneck (the AQM
  // runs fabric-wide), flattened leaf-by-leaf then spine-by-spine in port
  // order: each leaf has hosts_per_leaf down ports, then `spines` up ports;
  // each spine one down port per leaf, in leaf order. Scenario target -1 is
  // leaf 0's first uplink (the canonical fabric bottleneck). Pools follow
  // switch order: leaves, then spines.
  //
  // Load is defined per host access link; the aggregate arrival rate scales
  // with the number of hosts.
  DataRate ReferenceCapacity() const override;
  std::string DescribePortTargets() const override;

 private:
  Simulator& sim_;
  LeafSpineConfig config_;
  std::vector<std::unique_ptr<BufferPolicy>> pools_;  // leaves, then spines
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<TcpStack>> stacks_;
  std::vector<std::unique_ptr<SwitchNode>> leaves_;
  std::vector<std::unique_ptr<SwitchNode>> spines_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_LEAF_SPINE_H_

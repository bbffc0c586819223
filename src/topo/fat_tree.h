// Three-tier k-ary fat-tree (Al-Fares et al.) with per-flow ECMP — the
// multi-tier fabric of the paper's large-scale ns-3 regime pushed to
// thousands of hosts.
//
// A k-ary fat-tree has k pods, each with k/2 edge and k/2 aggregation
// switches, plus (k/2)^2 core switches; every edge switch serves k/2 hosts,
// so the fabric carries k^3/4 hosts total (k=8 -> 128, k=16 -> 1024,
// k=32 -> 8192) at full bisection bandwidth. Host addresses are sequential
// and pod-major: host h lives in pod h / (k^2/4), under edge switch
// (h / (k/2)) % (k/2). That contiguity is what lets aggregation and core
// switches route on address *ranges* (one block per edge subnet / pod)
// instead of per-host entries, keeping route memory O(k) per switch.
//
// Up-paths use per-switch-salted ECMP: an edge switch spreads non-local
// flows over its k/2 aggregation uplinks (a default route), an aggregation
// switch spreads inter-pod flows over its k/2 core uplinks, giving the full
// (k/2)^2 equal-cost core paths per host pair. Down-paths are deterministic
// (range routes). All links run at the same rate, so the fabric is
// non-blocking and the access links are the steady-state bottleneck, but
// every switch egress port carries the AQM under test and is exposed as a
// bottleneck/scenario target — scenarios and fabric-wide ECN# re-estimation
// run unchanged.
#ifndef ECNSHARP_TOPO_FAT_TREE_H_
#define ECNSHARP_TOPO_FAT_TREE_H_

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

class LaneSet;

struct FatTreeConfig {
  // Fat-tree arity: k pods of k/2 edge + k/2 aggregation switches. Must be
  // even and >= 4 (validated with exit 2).
  std::size_t k = 8;
  // First host address. Standalone fabrics keep 0; a composed topology
  // (topo/composed.h) offsets the second side so the two address spaces are
  // disjoint and border switches can route on contiguous ranges.
  std::uint32_t base_address = 0;
  DataRate rate = DataRate::GigabitsPerSecond(10);
  // Propagation per host<->edge hop and per switch<->switch hop. With 10 us
  // each, the inter-pod base RTT is 4*10 + 8*10 = 120 us.
  Time host_link_delay = Time::FromMicroseconds(10);
  Time fabric_link_delay = Time::FromMicroseconds(10);
  std::uint64_t buffer_bytes = 600ull * kFullPacketBytes;
  std::uint64_t host_buffer_bytes = 64ull * 1024 * 1024;
  TcpConfig tcp;
  // Optional shared-buffer policy, one pool per switch chip (every edge,
  // aggregation, and core switch shares one pool across its k egress
  // queues). kNone (default) keeps static per-port buffers.
  BufferPolicyConfig buffer_policy;
};

class FatTree : public Topology {
 public:
  // `make_disc` builds the queue disc for every switch egress port (the AQM
  // under test runs fabric-wide).
  //
  // With `lanes`, the fabric is locality-sharded for the relaxed-lanes
  // executor and `sim` must be lanes->lane(0): pod p's hosts, edge and
  // aggregation switches are built on lane LaneOfLocality(1 + p) =
  // (1 + p) % lanes->size(), core switches on lane 0, and every agg<->core
  // link whose endpoints land on different lanes is bridged through the
  // LaneSet mailboxes with the full fabric_link_delay (which must therefore
  // be >= the executor's round window). The Topology interface still works
  // for construction-time wiring, but scenario / trace / sketch hooks must
  // not be used — the relaxed runner rejects them.
  FatTree(Simulator& sim, const FatTreeConfig& config,
          const DiscFactory& make_disc, LaneSet* lanes = nullptr);

  std::size_t k() const { return config_.k; }
  std::size_t pod_count() const { return config_.k; }
  std::size_t hosts_per_edge() const { return config_.k / 2; }
  std::size_t hosts_per_pod() const { return (config_.k * config_.k) / 4; }
  std::size_t PodOfHost(std::size_t host_index) const {
    return host_index / hosts_per_pod();
  }
  std::size_t EdgeOfHost(std::size_t host_index) const {
    return host_index / hosts_per_edge();  // global edge index
  }

  // Logical locality ids (annotated on every node): pod p is locality
  // 1 + p, the core tier is locality 0. In a lane-sharded build locality
  // `l` executes on lane l % lane_count.
  std::uint32_t LocalityOfPod(std::size_t pod) const {
    return static_cast<std::uint32_t>(1 + pod);
  }
  std::size_t LaneOfLocality(std::uint32_t locality) const;
  std::size_t LaneOfHost(std::size_t host_index) const {
    return LaneOfLocality(LocalityOfPod(PodOfHost(host_index)));
  }
  bool lane_sharded() const { return lanes_ != nullptr; }

  // Global switch indices: edges and aggs are pod-major (pod p holds edges
  // [p*k/2, (p+1)*k/2)), cores are indexed a*(k/2)+j where core group `a`
  // connects to aggregation switch `a` of every pod.
  SwitchNode& edge(std::size_t i) { return *edges_.at(i); }
  SwitchNode& agg(std::size_t i) { return *aggs_.at(i); }
  SwitchNode& core(std::size_t i) { return *cores_.at(i); }
  std::size_t edge_count() const { return edges_.size(); }
  std::size_t agg_count() const { return aggs_.size(); }
  std::size_t core_count() const { return cores_.size(); }

  // --- Topology interface: every host can originate flows. ---------------
  std::size_t host_count() const override { return hosts_.size(); }
  Host& host(std::size_t i) override { return *hosts_.at(i); }
  TcpStack& stack(std::size_t i) override { return *stacks_.at(i); }
  // Inter-pod base RTT (two host hops + four fabric hops each way) plus the
  // host's current extra delay — the worst-case path, which is what the
  // rule-of-thumb must cover under ECMP path diversity.
  Time HostBaseRtt(std::size_t i) const override;
  // Load is defined per host access link; the aggregate arrival rate scales
  // with the number of hosts.
  DataRate ReferenceCapacity() const override;
  // Uniform random src, uniform random dst != src (two draws per call).
  // Uniform pairs give the natural inter/intra-pod mix: a fraction
  // (k-1)/k of pairs cross pods, 1/k stay inside one.
  std::pair<TcpStack*, std::uint32_t> SampleFlowPair(Rng& rng) override;
  // Bursts converge on host 0 from the remaining hosts, round-robin.
  std::uint32_t IncastTarget() const override;
  TcpStack& IncastSender(std::size_t k) override;
  // Target ids: -1 = edge 0's first uplink (the canonical fabric
  // bottleneck), 0..host_count-1 = host NICs, host_count.. = every switch
  // egress port flattened edge-by-edge, then agg-by-agg, then core-by-core
  // in port order (each edge: k/2 host down ports then k/2 uplinks; each
  // agg: k/2 edge down ports then k/2 core uplinks; each core: k pod down
  // ports).
  EgressPort* ResolvePort(int target) override;
  std::string DescribePortTargets() const override;
  // Every switch egress port is instrumented — the AQM runs fabric-wide.
  std::size_t bottleneck_count() const override;
  EgressPort& bottleneck(std::size_t i) override;
  std::uint64_t TotalLinkDownDrops() const override;
  // Pools in edge, agg, core order (matching the switch index spaces);
  // empty when no buffer policy is configured.
  std::size_t buffer_pool_count() const override { return pools_.size(); }
  BufferPolicy* buffer_pool(std::size_t i) override {
    return pools_.at(i).get();
  }

 private:
  BufferPolicy* EdgePool(std::size_t e) {
    return pools_.empty() ? nullptr : pools_[e].get();
  }
  BufferPolicy* AggPool(std::size_t a) {
    return pools_.empty() ? nullptr : pools_[edges_.size() + a].get();
  }
  BufferPolicy* CorePool(std::size_t c) {
    return pools_.empty() ? nullptr
                          : pools_[edges_.size() + aggs_.size() + c].get();
  }

  // The simulator a pod-p node lives on: `sim_` in single-simulator builds,
  // the pod's lane in lane-sharded ones (core switches live on `sim_`).
  Simulator& PodSim(std::size_t pod);

  Simulator& sim_;
  LaneSet* lanes_ = nullptr;
  FatTreeConfig config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<TcpStack>> stacks_;
  std::vector<std::unique_ptr<SwitchNode>> edges_;
  std::vector<std::unique_ptr<SwitchNode>> aggs_;
  std::vector<std::unique_ptr<SwitchNode>> cores_;
  std::vector<std::unique_ptr<BufferPolicy>> pools_;
  // Receiving ends of cross-lane links (lane-sharded builds only).
  std::vector<std::unique_ptr<PacketSink>> bridges_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_FAT_TREE_H_

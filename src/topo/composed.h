// ComposedTopology: two datacenter fabrics joined over a high-RTT border.
//
// The inter-DC regime is ECN#'s hardest RTT-variation instance: microsecond
// intra-DC flows share switch queues with millisecond WAN flows, so an
// instantaneous threshold sized for the tail RTT lets ms-RTT flows build
// standing queues that double or triple short-flow FCTs, while a threshold
// sized for the fabric RTT starves the WAN flows. Each side of the composed
// fabric is an unmodified LeafSpine or FatTree (per-side configs, disjoint
// host address ranges); a per-side border gateway switch attaches to every
// top-tier switch (spines / cores) and the two gateways connect over
// `border_links` point-to-point links carrying `border_rtt` of extra
// round-trip propagation, optionally oversubscribed (border aggregate below
// either side's bisection).
//
// Address plan (the seam's routing stays O(1) per switch):
//   side A hosts: [base_a, base_a + nA)   (base_a = 0 by default)
//   side B hosts: [base_b, base_b + nB)   (base_b = base_a + nA when
//                                          auto_address, validated disjoint
//                                          otherwise)
// Remote traffic routes on the peer's contiguous block: leaves/cores add one
// range route over their uplinks, top-tier switches range-route the block to
// their gateway attach port, and each gateway ECMPs the block over the
// border links. Everything below the top tier is untouched — fat-tree edges
// and aggs reach the border through their existing default routes.
//
// Unified target-id space (ResolvePort / scenarios / tracing / sketching):
//   -1                      first border link's egress on gateway A
//   0 .. n-1                host NICs, side A then side B (n = nA + nB)
//   n .. n+bA-1             side A bottlenecks (its own flattening order,
//                           now including the gateway attach uplinks added
//                           to its top-tier switches)
//   n+bA .. n+bA+bB-1       side B bottlenecks
//   then                    gateway A ports (attach downs, then border
//                           links), then gateway B ports
//
// Border ports carry a base-RTT annotation (EgressPort::base_rtt_hint) equal
// to the full inter-DC path RTT, and AppendRttSamplesUs mixes
// `inter_rtt_fraction` worth of inter-DC samples into the re-estimation
// population, so both the oracle and the sketch-driven ECN# re-estimators
// see the WAN paths.
#ifndef ECNSHARP_TOPO_COMPOSED_H_
#define ECNSHARP_TOPO_COMPOSED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/policy_spec.h"
#include "net/switch_node.h"
#include "sim/data_rate.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "topo/leaf_spine.h"
#include "topo/topology.h"

namespace ecnsharp {

// One side of the composed fabric: an unmodified LeafSpine or FatTree.
struct ComposedSideConfig {
  enum class Kind { kLeafSpine, kFatTree };
  Kind kind = Kind::kLeafSpine;
  LeafSpineConfig leaf_spine;
  FatTreeConfig fat_tree;
};

struct ComposedConfig {
  ComposedSideConfig side_a;
  ComposedSideConfig side_b;

  // Inter-DC span: `border_links` parallel links between the two gateways,
  // each at `border_rate`, each adding `border_rtt` of round-trip
  // propagation over the intra-fabric path. border_links must be >= 1 and
  // border_rtt must lie in [0, 10s] (both validated with exit 2).
  std::size_t border_links = 1;
  DataRate border_rate = DataRate::GigabitsPerSecond(10);
  Time border_rtt = Time::Zero();
  // Propagation of each gateway<->top-tier attach hop (usually negligible
  // against border_rtt; kept separate so the zero-extra-RTT reduction-parity
  // configuration exists).
  Time attach_delay = Time::Zero();

  // When true (default), side B's base_address is overridden to sit
  // immediately after side A's block. When false, the configured
  // base_addresses are used verbatim and validated disjoint (exit 2 on
  // overlap).
  bool auto_address = true;

  // Optional shared-buffer policy for the two gateway chips (each pools its
  // attach-down ports and border links); the sides keep their own configs.
  BufferPolicyConfig buffer_policy;
  std::uint64_t buffer_bytes = 600ull * kFullPacketBytes;

  // Weight of inter-DC path samples in the re-estimation RTT population:
  // AppendRttSamplesUs appends round(inter_rtt_fraction * host_count) extra
  // samples at the inter-DC RTT on top of the per-host intra samples.
  double inter_rtt_fraction = 0.25;
};

class ComposedTopology : public Topology {
 public:
  // `make_disc` builds every switch egress disc and receives the owning
  // chip's pool — each side's switch pools for its own ports, the gateway
  // pools for attach-down and border ports, and null for the attach uplinks
  // added into the sides' top-tier switches (so a side's per-chip pool
  // accounting is identical to its standalone build).
  ComposedTopology(Simulator& sim, const ComposedConfig& config,
                   const DiscFactory& make_disc);

  // --- Composition accessors (tests, benches) ----------------------------
  Topology& side(std::size_t s) { return *side_[s]; }
  std::size_t side_host_count(std::size_t s) const { return side_hosts_[s]; }
  std::uint32_t side_base_address(std::size_t s) const {
    return side_base_[s];
  }
  SwitchNode& gateway(std::size_t s) { return *gateways_[s]; }
  std::size_t border_link_count() const { return border_[0].size(); }
  EgressPort& border_port(std::size_t s, std::size_t j) {
    return *border_[s].at(j);
  }
  std::size_t attach_count(std::size_t s) const {
    return attach_down_[s].size();
  }
  // Extra round-trip an inter-DC path carries over the intra-fabric path:
  // border_rtt plus the four attach hops.
  Time InterExtraRtt() const;
  // Full base RTT of the longest inter-DC path (worst side's intra RTT plus
  // the border extra) — the border ports' base_rtt_hint.
  Time InterBaseRtt() const;

  // --- Split traffic-matrix sampling -------------------------------------
  // Intra-DC pair confined to side `s` (two rng draws, like the sides).
  std::pair<TcpStack*, std::uint32_t> SampleIntraPair(std::size_t s, Rng& rng);
  // Inter-DC pair: uniform source side, uniform source host, uniform
  // destination host on the peer side (three rng draws).
  std::pair<TcpStack*, std::uint32_t> SampleInterPair(Rng& rng);

  // --- Topology interface ------------------------------------------------
  std::size_t host_count() const override {
    return side_hosts_[0] + side_hosts_[1];
  }
  Host& host(std::size_t i) override;
  TcpStack& stack(std::size_t i) override;
  // Intra-fabric base RTT of the owning side (inter-DC paths additionally
  // carry InterExtraRtt; AppendRttSamplesUs represents them).
  Time HostBaseRtt(std::size_t i) const override;
  void AppendRttSamplesUs(std::vector<double>& rtts_us) const override;
  // Sum of both sides' aggregate access capacity.
  DataRate ReferenceCapacity() const override;
  // Uniform over all ordered host pairs fabric-wide (two rng draws) — the
  // natural mixed matrix when no split is requested.
  std::pair<TcpStack*, std::uint32_t> SampleFlowPair(Rng& rng) override;
  // Bursts converge on side A's host 0 from all remaining hosts fabric-wide.
  std::uint32_t IncastTarget() const override;
  TcpStack& IncastSender(std::size_t k) override;
  EgressPort* ResolvePort(int target) override;
  std::string DescribePortTargets() const override;
  std::size_t bottleneck_count() const override;
  EgressPort& bottleneck(std::size_t i) override;
  std::uint64_t TotalLinkDownDrops() const override;
  // Pools: side A's, then side B's, then the two gateway pools.
  std::size_t buffer_pool_count() const override;
  BufferPolicy* buffer_pool(std::size_t i) override;

 private:
  void BuildSide(std::size_t s, const DiscFactory& make_disc);
  void AttachSide(std::size_t s, const DiscFactory& make_disc);
  BufferPolicy* GatewayPool(std::size_t s) {
    return gw_pools_.empty() ? nullptr : gw_pools_[s].get();
  }
  const ComposedSideConfig& side_config(std::size_t s) const {
    return s == 0 ? config_.side_a : config_.side_b;
  }
  // (local stack index, global destination address) for a global host index.
  std::uint32_t GlobalAddress(std::size_t i) const;

  Simulator& sim_;
  ComposedConfig config_;
  std::unique_ptr<LeafSpine> leaf_spine_[2];
  std::unique_ptr<FatTree> fat_tree_[2];
  Topology* side_[2] = {nullptr, nullptr};
  std::size_t side_hosts_[2] = {0, 0};
  std::uint32_t side_base_[2] = {0, 0};
  std::vector<std::unique_ptr<BufferPolicy>> gw_pools_;  // gwA, gwB
  std::unique_ptr<SwitchNode> gateways_[2];
  std::vector<EgressPort*> attach_down_[2];  // gateway -> top tier
  std::vector<EgressPort*> border_[2];       // gateway -> peer gateway
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TOPO_COMPOSED_H_

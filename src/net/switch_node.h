// Output-queued switch with static routing and per-flow ECMP.
//
// Forwarding model: a packet arriving at the switch is looked up by
// destination address; if several egress ports match (multiple equal-cost
// uplinks), one is selected by hashing the flow key with a per-switch salt,
// so every packet of a flow takes the same path (per-flow ECMP, as in the
// paper's leaf-spine simulations). Queueing happens only at egress ports.
//
// One route table: a sorted list of disjoint, inclusive address blocks,
// each with its ECMP port set, and a default set for every address no block
// holds. A ToR routes each of its hosts as a one-address block (AddRoute)
// and sends everything else up its default set (AddDefaultRoute); the tiers
// above route one block per subnet down (AddRouteRange: a leaf's or edge's
// hosts, a pod, a peer datacenter). Table size is independent of host
// count: a k=32 fat-tree edge switch carries 16 one-address blocks plus one
// 16-way default set instead of 8192 per-host entries per uplink.
#ifndef ECNSHARP_NET_SWITCH_NODE_H_
#define ECNSHARP_NET_SWITCH_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/egress_port.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class SwitchNode : public PacketSink {
 public:
  SwitchNode(Simulator& sim, std::string name, std::uint64_t ecmp_salt = 0)
      : sim_(sim), name_(std::move(name)), ecmp_salt_(ecmp_salt) {}

  const std::string& name() const { return name_; }

  // Installs an egress port; the switch owns it.
  EgressPort& AddPort(std::unique_ptr<EgressPort> port) {
    ports_.push_back(std::move(port));
    return *ports_.back();
  }
  std::size_t port_count() const { return ports_.size(); }
  EgressPort& port(std::size_t i) { return *ports_.at(i); }
  const EgressPort& port(std::size_t i) const { return *ports_.at(i); }

  // Adds `port` to the ECMP set of the one-address block [dst, dst].
  void AddRoute(std::uint32_t dst, EgressPort& port) {
    AddRouteRange(dst, dst, port);
  }

  // Adds `port` to the ECMP set of the block [lo, hi] (inclusive). A block
  // either coincides with an existing one (widening its ECMP set) or is
  // disjoint from all others; an empty or partially overlapping block exits
  // 2 (FatalConfigError).
  void AddRouteRange(std::uint32_t lo, std::uint32_t hi, EgressPort& port);

  // Adds `port` to the ECMP set used when no block holds the destination.
  void AddDefaultRoute(EgressPort& port) { default_route_.push_back(&port); }

  void HandlePacket(std::unique_ptr<Packet> pkt) override;

  // The ECMP bucket for a flow-key hash under a per-switch salt: a
  // splitmix64-style finalizer over (key_hash, salt). Every input bit
  // avalanches into the bucket choice, so structured key populations
  // (sequential addresses/ports) spread uniformly and consecutive salted
  // hops choose independently — no polarization. `buckets` must be > 0.
  static std::size_t EcmpBucket(std::uint64_t key_hash, std::uint64_t salt,
                                std::size_t buckets) {
    std::uint64_t h = key_hash + salt * 0x9e3779b97f4a7c15ull;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h % buckets);
  }

  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }

 private:
  struct Block {
    std::uint32_t lo;
    std::uint32_t hi;  // inclusive
    std::vector<EgressPort*> ports;
  };

  // The ECMP set of the block holding `dst`, else the default set (empty
  // when the switch has no default route).
  const std::vector<EgressPort*>& Lookup(std::uint32_t dst) const;

  Simulator& sim_;
  std::string name_;
  std::uint64_t ecmp_salt_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::vector<Block> blocks_;  // sorted by lo, pairwise disjoint
  std::vector<EgressPort*> default_route_;
  std::uint64_t rx_packets_ = 0;
  std::uint64_t no_route_drops_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_SWITCH_NODE_H_

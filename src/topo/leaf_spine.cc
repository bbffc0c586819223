#include "topo/leaf_spine.h"

#include <cassert>
#include <string>
#include <utility>

#include "sched/fifo_queue_disc.h"
#include "sim/logging.h"

namespace ecnsharp {

LeafSpine::LeafSpine(Simulator& sim, const LeafSpineConfig& config,
                     const DiscFactory& make_disc)
    : sim_(sim), config_(config) {
  assert(make_disc != nullptr);
  if (config_.spines < 1 || config_.leaves < 1 ||
      config_.hosts_per_leaf < 1) {
    FatalConfigError("leaf-spine dimensions must all be >= 1, got spines=" +
                     std::to_string(config_.spines) + " leaves=" +
                     std::to_string(config_.leaves) + " hosts_per_leaf=" +
                     std::to_string(config_.hosts_per_leaf));
  }
  const std::size_t host_count = config_.leaves * config_.hosts_per_leaf;

  if (config_.buffer_policy.kind != BufferPolicyKind::kNone) {
    // One pool per switch chip. A leaf has hosts_per_leaf down ports plus
    // `spines` uplinks; a spine has one down port per leaf.
    for (std::size_t l = 0; l < config_.leaves; ++l) {
      pools_.push_back(MakeBufferPolicy(
          config_.buffer_policy, config_.hosts_per_leaf + config_.spines,
          config_.buffer_bytes));
    }
    for (std::size_t s = 0; s < config_.spines; ++s) {
      pools_.push_back(MakeBufferPolicy(config_.buffer_policy, config_.leaves,
                                        config_.buffer_bytes));
    }
  }

  // Locality annotations: leaf l and its hosts form locality 1 + l; the
  // spine tier is the shared locality 0 (mirrors the fat-tree pod scheme).
  for (std::size_t l = 0; l < config_.leaves; ++l) {
    leaves_.push_back(std::make_unique<SwitchNode>(
        sim_, "leaf" + std::to_string(l), /*ecmp_salt=*/0x1000 + l));
    leaves_.back()->set_locality_id(static_cast<std::uint32_t>(1 + l));
  }
  for (std::size_t s = 0; s < config_.spines; ++s) {
    spines_.push_back(std::make_unique<SwitchNode>(
        sim_, "spine" + std::to_string(s), /*ecmp_salt=*/0x2000 + s));
    spines_.back()->set_locality_id(0);
  }

  // Hosts and access links. Addresses start at base_address (nonzero only
  // inside a composed topology).
  for (std::size_t h = 0; h < host_count; ++h) {
    auto host = std::make_unique<Host>(
        sim_, config_.base_address + static_cast<std::uint32_t>(h));
    host->set_locality_id(static_cast<std::uint32_t>(1 + LeafOfHost(h)));
    SwitchNode& leaf = *leaves_[LeafOfHost(h)];

    auto nic = std::make_unique<EgressPort>(
        sim_, config_.rate, config_.host_link_delay,
        std::make_unique<FifoQueueDisc>(config_.host_buffer_bytes, nullptr));
    nic->ConnectTo(leaf);
    host->AttachNic(std::move(nic));

    auto down = std::make_unique<EgressPort>(
        sim_, config_.rate, config_.host_link_delay,
        make_disc(LeafPool(LeafOfHost(h))));
    down->ConnectTo(*host);
    EgressPort& down_ref = leaf.AddPort(std::move(down));
    leaf.AddRoute(host->address(), down_ref);

    stacks_.push_back(std::make_unique<TcpStack>(*host, config_.tcp));
    hosts_.push_back(std::move(host));
  }

  // Leaf <-> spine fabric.
  for (std::size_t l = 0; l < config_.leaves; ++l) {
    SwitchNode& leaf = *leaves_[l];
    for (std::size_t s = 0; s < config_.spines; ++s) {
      SwitchNode& spine = *spines_[s];

      auto up = std::make_unique<EgressPort>(
          sim_, config_.rate, config_.spine_link_delay,
          make_disc(LeafPool(l)));
      up->ConnectTo(spine);
      EgressPort& up_ref = leaf.AddPort(std::move(up));

      auto down = std::make_unique<EgressPort>(
          sim_, config_.rate, config_.spine_link_delay,
          make_disc(SpinePool(s)));
      down->ConnectTo(leaf);
      EgressPort& down_ref = spine.AddPort(std::move(down));

      // Spine routes to every host under this leaf via the down port.
      for (std::size_t h = 0; h < config_.hosts_per_leaf; ++h) {
        const auto addr =
            config_.base_address +
            static_cast<std::uint32_t>(l * config_.hosts_per_leaf + h);
        spine.AddRoute(addr, down_ref);
      }
      // Leaf routes to every non-local host via all uplinks (ECMP).
      for (std::size_t h = 0; h < host_count; ++h) {
        if (LeafOfHost(h) == l) continue;
        leaf.AddRoute(config_.base_address + static_cast<std::uint32_t>(h),
                      up_ref);
      }
    }
  }
}

Time LeafSpine::HostBaseRtt(std::size_t i) const {
  const Time one_way =
      config_.host_link_delay * 2 + config_.spine_link_delay * 2;
  return one_way * 2 + hosts_.at(i)->extra_egress_delay();
}

DataRate LeafSpine::ReferenceCapacity() const {
  return DataRate::BitsPerSecond(
      config_.rate.bps() * static_cast<std::int64_t>(hosts_.size()));
}

std::pair<TcpStack*, std::uint32_t> LeafSpine::SampleFlowPair(Rng& rng) {
  const std::size_t n = hosts_.size();
  // A 1-host fabric is constructible (loopback-ish probes) but cannot form
  // a (src, dst != src) pair — the UniformInt(n - 1) draw below would be
  // degenerate. Fail fast instead of sampling garbage.
  if (n < 2) {
    FatalConfigError("leaf-spine SampleFlowPair needs >= 2 hosts, have " +
                     std::to_string(n));
  }
  const std::size_t src = rng.UniformInt(n);
  std::size_t dst = rng.UniformInt(n - 1);
  if (dst >= src) ++dst;
  return std::make_pair(stacks_[src].get(),
                        config_.base_address + static_cast<std::uint32_t>(dst));
}

std::uint32_t LeafSpine::IncastTarget() const { return hosts_[0]->address(); }

TcpStack& LeafSpine::IncastSender(std::size_t k) {
  // With a single host the modulus below would be zero (UB); the burst has
  // no sender distinct from its target anyway.
  if (hosts_.size() < 2) {
    FatalConfigError("leaf-spine incast needs >= 2 hosts, have " +
                     std::to_string(hosts_.size()));
  }
  return *stacks_[1 + k % (hosts_.size() - 1)];
}

EgressPort* LeafSpine::ResolvePort(int target) {
  if (target < 0) return &leaves_[0]->port(config_.hosts_per_leaf);
  std::size_t id = static_cast<std::size_t>(target);
  if (id < hosts_.size()) return &hosts_[id]->nic();
  id -= hosts_.size();
  if (id < bottleneck_count()) return &bottleneck(id);
  return nullptr;
}

std::string LeafSpine::DescribePortTargets() const {
  const std::size_t hosts = hosts_.size();
  return "-1 = leaf0 first uplink (primary bottleneck), 0.." +
         std::to_string(hosts - 1) + " = host NICs, " + std::to_string(hosts) +
         ".." + std::to_string(hosts + bottleneck_count() - 1) +
         " = switch egress ports (leaves then spines, in port order)";
}

std::size_t LeafSpine::bottleneck_count() const {
  std::size_t total = 0;
  for (const auto& sw : leaves_) total += sw->port_count();
  for (const auto& sw : spines_) total += sw->port_count();
  return total;
}

EgressPort& LeafSpine::bottleneck(std::size_t i) {
  for (const auto& sw : leaves_) {
    if (i < sw->port_count()) return sw->port(i);
    i -= sw->port_count();
  }
  for (const auto& sw : spines_) {
    if (i < sw->port_count()) return sw->port(i);
    i -= sw->port_count();
  }
  assert(false && "bottleneck index out of range");
  return leaves_[0]->port(0);
}

std::uint64_t LeafSpine::TotalLinkDownDrops() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) {
    total += host->nic().counters().dropped_link_down;
  }
  const auto add = [&total](const std::vector<std::unique_ptr<SwitchNode>>&
                                switches) {
    for (const auto& sw : switches) {
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        total += sw->port(p).counters().dropped_link_down;
      }
    }
  };
  add(leaves_);
  add(spines_);
  return total;
}

}  // namespace ecnsharp

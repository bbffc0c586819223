#include "topo/leaf_spine.h"

#include <cassert>
#include <string>
#include <utility>

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
    for (const auto& pool : pools_) tables_.pools.push_back(pool.get());
  }
  // buffer_pool(i) is null while the pool table is empty (no policy), so
  // the wiring below hands every disc its chip's pool or null.

  for (std::size_t l = 0; l < config_.leaves; ++l) {
    leaves_.push_back(std::make_unique<SwitchNode>(
        sim_, "leaf" + std::to_string(l), /*ecmp_salt=*/0x1000 + l));
    tables_.switches.push_back(leaves_.back().get());
  }
  for (std::size_t s = 0; s < config_.spines; ++s) {
    spines_.push_back(std::make_unique<SwitchNode>(
        sim_, "spine" + std::to_string(s), /*ecmp_salt=*/0x2000 + s));
    tables_.switches.push_back(spines_.back().get());
  }

  // Hosts and access links. Addresses start at base_address (nonzero only
  // inside a composed topology).
  const AccessLink link{config_.rate, config_.host_link_delay,
                        config_.host_buffer_bytes, config_.tcp};
  const Time path_rtt =
      (config_.host_link_delay * 2 + config_.spine_link_delay * 2) * 2;
  for (std::size_t h = 0; h < host_count; ++h) {
    const std::size_t l = LeafOfHost(h);
    BuildAccessHost(sim_, *leaves_[l],
                    config_.base_address + static_cast<std::uint32_t>(h),
                    link, make_disc, buffer_pool(l), hosts_, stacks_);
    AddHost(*hosts_[h], *stacks_[h], path_rtt);
  }

  // Leaf <-> spine fabric. A leaf sends everything but its own hosts up its
  // ECMP default set over all spines; a spine routes each leaf's contiguous
  // host block down.
  for (std::size_t l = 0; l < config_.leaves; ++l) {
    SwitchNode& leaf = *leaves_[l];
    const auto block_lo =
        config_.base_address +
        static_cast<std::uint32_t>(l * config_.hosts_per_leaf);
    const auto block_hi =
        static_cast<std::uint32_t>(block_lo + config_.hosts_per_leaf - 1);
    for (std::size_t s = 0; s < config_.spines; ++s) {
      SwitchNode& spine = *spines_[s];

      auto up = std::make_unique<EgressPort>(
          sim_, config_.rate, config_.spine_link_delay,
          make_disc(buffer_pool(l)));
      up->ConnectTo(spine);
      leaf.AddDefaultRoute(leaf.AddPort(std::move(up)));

      auto down = std::make_unique<EgressPort>(
          sim_, config_.rate, config_.spine_link_delay,
          make_disc(buffer_pool(config_.leaves + s)));
      down->ConnectTo(leaf);
      spine.AddRouteRange(block_lo, block_hi, spine.AddPort(std::move(down)));
    }
  }
  IndexSwitchPorts(*this);
  tables_.primary_port = &leaves_[0]->port(config_.hosts_per_leaf);
}

DataRate LeafSpine::ReferenceCapacity() const {
  return DataRate::BitsPerSecond(
      config_.rate.bps() * static_cast<std::int64_t>(hosts_.size()));
}

std::string LeafSpine::DescribePortTargets() const {
  const std::size_t hosts = hosts_.size();
  return "-1 = leaf0 first uplink (primary bottleneck), 0.." +
         std::to_string(hosts - 1) + " = host NICs, " + std::to_string(hosts) +
         ".." + std::to_string(hosts + bottleneck_count() - 1) +
         " = switch egress ports (leaves then spines, in port order)";
}

}  // namespace ecnsharp

#include "topo/fat_tree.h"

#include <cassert>
#include <string>
#include <utility>

#include "net/lane_bridge.h"
#include "sim/lane_executor.h"
#include "sim/logging.h"

namespace ecnsharp {

std::size_t FatTree::LaneOfLocality(std::uint32_t locality) const {
  return lanes_ == nullptr ? 0 : locality % lanes_->size();
}

Simulator& FatTree::PodSim(std::size_t pod) {
  return lanes_ == nullptr
             ? sim_
             : lanes_->lane(LaneOfLocality(LocalityOfPod(pod)));
}

FatTree::FatTree(Simulator& sim, const FatTreeConfig& config,
                 const DiscFactory& make_disc, LaneSet* lanes)
    : sim_(sim), lanes_(lanes), config_(config) {
  assert(make_disc != nullptr);
  assert(lanes == nullptr || &sim == &lanes->lane(0));
  if (config_.k < 4 || config_.k % 2 != 0) {
    FatalConfigError("fat-tree k must be even and >= 4, got k=" +
                     std::to_string(config_.k));
  }
  if (config_.rate.bps() <= 0) {
    FatalConfigError("fat-tree link rate must be positive, got " +
                     std::to_string(config_.rate.bps()) + " bps");
  }
  const std::size_t half_k = config_.k / 2;
  const std::size_t pods = config_.k;
  const std::size_t host_count = hosts_per_pod() * pods;

  for (std::size_t g = 0; g < pods * half_k; ++g) {
    const std::size_t pod = g / half_k;
    edges_.push_back(std::make_unique<SwitchNode>(
        PodSim(pod), "edge" + std::to_string(g), /*ecmp_salt=*/0x10000 + g));
    aggs_.push_back(std::make_unique<SwitchNode>(
        PodSim(pod), "agg" + std::to_string(g), /*ecmp_salt=*/0x20000 + g));
  }
  for (std::size_t c = 0; c < half_k * half_k; ++c) {
    cores_.push_back(std::make_unique<SwitchNode>(
        sim_, "core" + std::to_string(c), /*ecmp_salt=*/0x30000 + c));
  }

  // One shared-buffer pool per switch chip: every switch carries k egress
  // queues (edge/agg: k/2 down + k/2 up; core: one per pod).
  if (config_.buffer_policy.kind != BufferPolicyKind::kNone) {
    const std::size_t chips =
        edges_.size() + aggs_.size() + cores_.size();
    pools_.reserve(chips);
    for (std::size_t i = 0; i < chips; ++i) {
      pools_.push_back(MakeBufferPolicy(config_.buffer_policy, config_.k,
                                        config_.buffer_bytes));
      tables_.pools.push_back(pools_.back().get());
    }
  }
  for (const auto* tier : {&edges_, &aggs_, &cores_}) {
    for (const auto& sw : *tier) tables_.switches.push_back(sw.get());
  }
  // Chip pools in switch order; buffer_pool(i) is null while the pool table
  // is empty (no policy), so every disc gets its chip's pool or null.
  const std::size_t agg_pools = edges_.size();
  const std::size_t core_pools = edges_.size() + aggs_.size();

  // Hosts and access links. Host h is slot h % (k/2) of global edge
  // h / (k/2); sequential hosts fill an edge, then the next edge, so each
  // edge's k/2 host down ports land in slot order (ports 0..k/2-1).
  const AccessLink link{config_.rate, config_.host_link_delay,
                        config_.host_buffer_bytes, config_.tcp};
  const Time path_rtt =
      (config_.host_link_delay * 2 + config_.fabric_link_delay * 4) * 2;
  for (std::size_t h = 0; h < host_count; ++h) {
    BuildAccessHost(PodSim(PodOfHost(h)), *edges_[EdgeOfHost(h)],
                    config_.base_address + static_cast<std::uint32_t>(h),
                    link, make_disc, buffer_pool(EdgeOfHost(h)), hosts_,
                    stacks_);
    AddHost(*hosts_[h], *stacks_[h], path_rtt);
  }

  // Edge <-> aggregation inside each pod (edge ports k/2..k-1 are uplinks,
  // agg ports 0..k/2-1 are edge down ports). Non-local traffic leaves an
  // edge via the ECMP default route over all k/2 aggs; an agg routes each
  // edge's contiguous host block down and defaults the rest to the cores.
  for (std::size_t p = 0; p < pods; ++p) {
    for (std::size_t e = 0; e < half_k; ++e) {
      SwitchNode& edge = *edges_[p * half_k + e];
      const auto block_lo =
          config_.base_address +
          static_cast<std::uint32_t>((p * half_k + e) * half_k);
      const auto block_hi = static_cast<std::uint32_t>(block_lo + half_k - 1);
      for (std::size_t a = 0; a < half_k; ++a) {
        SwitchNode& agg = *aggs_[p * half_k + a];

        auto up = std::make_unique<EgressPort>(
            PodSim(p), config_.rate, config_.fabric_link_delay,
            make_disc(buffer_pool(p * half_k + e)));
        up->ConnectTo(agg);
        edge.AddDefaultRoute(edge.AddPort(std::move(up)));
      }
      for (std::size_t a = 0; a < half_k; ++a) {
        SwitchNode& agg = *aggs_[p * half_k + a];
        auto down = std::make_unique<EgressPort>(
            PodSim(p), config_.rate, config_.fabric_link_delay,
            make_disc(buffer_pool(agg_pools + p * half_k + a)));
        down->ConnectTo(edge);
        agg.AddRouteRange(block_lo, block_hi, agg.AddPort(std::move(down)));
      }
    }
  }

  // Aggregation <-> core (agg ports k/2..k-1 are core uplinks; core c of
  // group a = c / (k/2) links to aggregation switch a of every pod, one
  // port per pod in pod order). A core routes each pod's host block down.
  for (std::size_t p = 0; p < pods; ++p) {
    const auto pod_lo = config_.base_address +
                        static_cast<std::uint32_t>(p * hosts_per_pod());
    const auto pod_hi =
        static_cast<std::uint32_t>(pod_lo + hosts_per_pod() - 1);
    const std::size_t pod_lane = LaneOfLocality(LocalityOfPod(p));
    const bool cross_lane = lanes_ != nullptr && pod_lane != 0;
    for (std::size_t a = 0; a < half_k; ++a) {
      SwitchNode& agg = *aggs_[p * half_k + a];
      for (std::size_t j = 0; j < half_k; ++j) {
        SwitchNode& core = *cores_[a * half_k + j];

        // When the pod executes on a different lane than the core tier, the
        // link's serialization stays on the sender's lane but propagation
        // moves into the LaneSet mailbox: the port gets zero delay and a
        // bridge re-applies fabric_link_delay when posting to the peer lane.
        auto up = std::make_unique<EgressPort>(
            PodSim(p), config_.rate,
            cross_lane ? Time::Zero() : config_.fabric_link_delay,
            make_disc(buffer_pool(agg_pools + p * half_k + a)));
        if (cross_lane) {
          bridges_.push_back(std::make_unique<LaneBridgeSink>(
              *lanes_, pod_lane, /*to=*/0, config_.fabric_link_delay, core));
          up->ConnectTo(*bridges_.back());
        } else {
          up->ConnectTo(core);
        }
        agg.AddDefaultRoute(agg.AddPort(std::move(up)));

        auto down = std::make_unique<EgressPort>(
            sim_, config_.rate,
            cross_lane ? Time::Zero() : config_.fabric_link_delay,
            make_disc(buffer_pool(core_pools + a * half_k + j)));
        if (cross_lane) {
          bridges_.push_back(std::make_unique<LaneBridgeSink>(
              *lanes_, /*from=*/0, pod_lane, config_.fabric_link_delay, agg));
          down->ConnectTo(*bridges_.back());
        } else {
          down->ConnectTo(agg);
        }
        core.AddRouteRange(pod_lo, pod_hi, core.AddPort(std::move(down)));
      }
    }
  }
  IndexSwitchPorts(*this);
  tables_.primary_port = &edges_[0]->port(hosts_per_edge());
}

DataRate FatTree::ReferenceCapacity() const {
  return DataRate::BitsPerSecond(
      config_.rate.bps() * static_cast<std::int64_t>(hosts_.size()));
}

std::string FatTree::DescribePortTargets() const {
  const std::size_t hosts = hosts_.size();
  return "-1 = edge0 first uplink (primary bottleneck), 0.." +
         std::to_string(hosts - 1) + " = host NICs, " +
         std::to_string(hosts) + ".." +
         std::to_string(hosts + bottleneck_count() - 1) +
         " = switch egress ports (edges, then aggs, then cores, in port "
         "order)";
}

}  // namespace ecnsharp

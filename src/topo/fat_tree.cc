#include "topo/fat_tree.h"

#include <cassert>
#include <string>
#include <utility>

#include "net/lane_bridge.h"
#include "sched/fifo_queue_disc.h"
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
  const std::size_t half_k = config_.k / 2;
  const std::size_t pods = config_.k;
  const std::size_t host_count = hosts_per_pod() * pods;

  for (std::size_t g = 0; g < pods * half_k; ++g) {
    const std::size_t pod = g / half_k;
    edges_.push_back(std::make_unique<SwitchNode>(
        PodSim(pod), "edge" + std::to_string(g), /*ecmp_salt=*/0x10000 + g));
    edges_.back()->set_locality_id(LocalityOfPod(pod));
    aggs_.push_back(std::make_unique<SwitchNode>(
        PodSim(pod), "agg" + std::to_string(g), /*ecmp_salt=*/0x20000 + g));
    aggs_.back()->set_locality_id(LocalityOfPod(pod));
  }
  for (std::size_t c = 0; c < half_k * half_k; ++c) {
    cores_.push_back(std::make_unique<SwitchNode>(
        sim_, "core" + std::to_string(c), /*ecmp_salt=*/0x30000 + c));
    cores_.back()->set_locality_id(0);
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
    }
  }

  // Hosts and access links. Host h is slot h % (k/2) of global edge
  // h / (k/2); sequential hosts fill an edge, then the next edge, so each
  // edge's k/2 host down ports land in slot order (ports 0..k/2-1).
  for (std::size_t h = 0; h < host_count; ++h) {
    Simulator& pod_sim = PodSim(PodOfHost(h));
    auto host = std::make_unique<Host>(
        pod_sim, config_.base_address + static_cast<std::uint32_t>(h));
    host->set_locality_id(LocalityOfPod(PodOfHost(h)));
    SwitchNode& edge = *edges_[EdgeOfHost(h)];

    auto nic = std::make_unique<EgressPort>(
        pod_sim, config_.rate, config_.host_link_delay,
        std::make_unique<FifoQueueDisc>(config_.host_buffer_bytes, nullptr));
    nic->ConnectTo(edge);
    host->AttachNic(std::move(nic));

    auto down = std::make_unique<EgressPort>(
        pod_sim, config_.rate, config_.host_link_delay,
        make_disc(EdgePool(EdgeOfHost(h))));
    down->ConnectTo(*host);
    EgressPort& down_ref = edge.AddPort(std::move(down));
    edge.AddRoute(host->address(), down_ref);

    stacks_.push_back(std::make_unique<TcpStack>(*host, config_.tcp));
    hosts_.push_back(std::move(host));
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
            make_disc(EdgePool(p * half_k + e)));
        up->ConnectTo(agg);
        edge.AddDefaultRoute(edge.AddPort(std::move(up)));
      }
      for (std::size_t a = 0; a < half_k; ++a) {
        SwitchNode& agg = *aggs_[p * half_k + a];
        auto down = std::make_unique<EgressPort>(
            PodSim(p), config_.rate, config_.fabric_link_delay,
            make_disc(AggPool(p * half_k + a)));
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
            make_disc(AggPool(p * half_k + a)));
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
            make_disc(CorePool(a * half_k + j)));
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
}

Time FatTree::HostBaseRtt(std::size_t i) const {
  const Time one_way =
      config_.host_link_delay * 2 + config_.fabric_link_delay * 4;
  return one_way * 2 + hosts_.at(i)->extra_egress_delay();
}

DataRate FatTree::ReferenceCapacity() const {
  return DataRate::BitsPerSecond(
      config_.rate.bps() * static_cast<std::int64_t>(hosts_.size()));
}

std::pair<TcpStack*, std::uint32_t> FatTree::SampleFlowPair(Rng& rng) {
  const std::size_t n = hosts_.size();
  if (n < 2) {
    FatalConfigError("fat-tree SampleFlowPair needs >= 2 hosts, have " +
                     std::to_string(n));
  }
  const std::size_t src = rng.UniformInt(n);
  std::size_t dst = rng.UniformInt(n - 1);
  if (dst >= src) ++dst;
  return std::make_pair(stacks_[src].get(),
                        config_.base_address + static_cast<std::uint32_t>(dst));
}

std::uint32_t FatTree::IncastTarget() const { return hosts_[0]->address(); }

TcpStack& FatTree::IncastSender(std::size_t k) {
  if (hosts_.size() < 2) {
    FatalConfigError("fat-tree incast needs >= 2 hosts, have " +
                     std::to_string(hosts_.size()));
  }
  return *stacks_[1 + k % (hosts_.size() - 1)];
}

EgressPort* FatTree::ResolvePort(int target) {
  if (target < 0) return &edges_[0]->port(hosts_per_edge());
  std::size_t id = static_cast<std::size_t>(target);
  if (id < hosts_.size()) return &hosts_[id]->nic();
  id -= hosts_.size();
  if (id < bottleneck_count()) return &bottleneck(id);
  return nullptr;
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

std::size_t FatTree::bottleneck_count() const {
  // Every switch egress port: k ports per edge/agg switch (k/2 down + k/2
  // up), k per core (one per pod) — 5k^3/4 in total.
  std::size_t total = 0;
  for (const auto& sw : edges_) total += sw->port_count();
  for (const auto& sw : aggs_) total += sw->port_count();
  for (const auto& sw : cores_) total += sw->port_count();
  return total;
}

EgressPort& FatTree::bottleneck(std::size_t i) {
  for (const auto* tier : {&edges_, &aggs_, &cores_}) {
    for (const auto& sw : *tier) {
      if (i < sw->port_count()) return sw->port(i);
      i -= sw->port_count();
    }
  }
  assert(false && "bottleneck index out of range");
  return edges_[0]->port(0);
}

std::uint64_t FatTree::TotalLinkDownDrops() const {
  std::uint64_t total = 0;
  for (const auto& host : hosts_) {
    total += host->nic().counters().dropped_link_down;
  }
  for (const auto* tier : {&edges_, &aggs_, &cores_}) {
    for (const auto& sw : *tier) {
      for (std::size_t p = 0; p < sw->port_count(); ++p) {
        total += sw->port(p).counters().dropped_link_down;
      }
    }
  }
  return total;
}

}  // namespace ecnsharp

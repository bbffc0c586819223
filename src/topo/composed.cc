#include "topo/composed.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <utility>

#include "sim/logging.h"

namespace ecnsharp {

namespace {

// Longest round-trip an interdc span may add. Far beyond any WAN (a
// geostationary double hop is ~1.1s); anything larger is a unit mistake
// (e.g. nanoseconds passed as microseconds) and would overflow the
// experiment's time budget, so fail fast instead of hanging.
constexpr std::int64_t kMaxBorderRttSeconds = 10;

std::size_t SideHostCount(const ComposedSideConfig& side) {
  switch (side.kind) {
    case ComposedSideConfig::Kind::kLeafSpine:
      return side.leaf_spine.leaves * side.leaf_spine.hosts_per_leaf;
    case ComposedSideConfig::Kind::kFatTree:
      return side.fat_tree.k * side.fat_tree.k * side.fat_tree.k / 4;
  }
  return 0;
}

std::size_t SideAttachCount(const ComposedSideConfig& side) {
  switch (side.kind) {
    case ComposedSideConfig::Kind::kLeafSpine:
      return side.leaf_spine.spines;
    case ComposedSideConfig::Kind::kFatTree:
      return (side.fat_tree.k / 2) * (side.fat_tree.k / 2);
  }
  return 0;
}

Time SideIntraRtt(const ComposedSideConfig& side) {
  if (side.kind == ComposedSideConfig::Kind::kLeafSpine) {
    return (side.leaf_spine.host_link_delay * 2 +
            side.leaf_spine.spine_link_delay * 2) *
           2;
  }
  return (side.fat_tree.host_link_delay * 2 +
          side.fat_tree.fabric_link_delay * 4) *
         2;
}

}  // namespace

ComposedTopology::ComposedTopology(Simulator& sim, const ComposedConfig& config,
                                   const DiscFactory& make_disc)
    : sim_(sim), config_(config) {
  assert(make_disc != nullptr);
  if (config_.border_links < 1) {
    FatalConfigError(
        "composed topology needs >= 1 border link, got border_links=" +
        std::to_string(config_.border_links) + "; valid range [1, inf)");
  }
  if (config_.border_rate.bps() <= 0) {
    FatalConfigError("composed border rate must be positive, got " +
                     std::to_string(config_.border_rate.bps()) + " bps");
  }
  if (config_.border_rtt < Time::Zero() ||
      config_.border_rtt > Time::Seconds(kMaxBorderRttSeconds)) {
    FatalConfigError(
        "composed border RTT out of range: got " +
        std::to_string(config_.border_rtt.ToMicroseconds()) +
        " us; valid range [0us, " +
        std::to_string(kMaxBorderRttSeconds * 1'000'000) +
        " us] (larger values are almost certainly a unit mistake)");
  }
  if (config_.attach_delay < Time::Zero()) {
    FatalConfigError("composed attach delay must be >= 0, got " +
                     std::to_string(config_.attach_delay.ToMicroseconds()) +
                     " us");
  }
  if (config_.inter_rtt_fraction < 0.0 || config_.inter_rtt_fraction > 1.0) {
    FatalConfigError(
        "composed inter_rtt_fraction out of range: got " +
        std::to_string(config_.inter_rtt_fraction) + "; valid range [0, 1]");
  }

  side_hosts_[0] = SideHostCount(config_.side_a);
  side_hosts_[1] = SideHostCount(config_.side_b);
  if (config_.auto_address) {
    config_.side_b.leaf_spine.base_address =
        config_.side_b.fat_tree.base_address =
            config_.side_a.leaf_spine.base_address +
            static_cast<std::uint32_t>(side_hosts_[0]);
    if (config_.side_a.kind == ComposedSideConfig::Kind::kFatTree) {
      config_.side_b.leaf_spine.base_address =
          config_.side_b.fat_tree.base_address =
              config_.side_a.fat_tree.base_address +
              static_cast<std::uint32_t>(side_hosts_[0]);
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    const ComposedSideConfig& sc = side_config(s);
    side_base_[s] = sc.kind == ComposedSideConfig::Kind::kLeafSpine
                        ? sc.leaf_spine.base_address
                        : sc.fat_tree.base_address;
  }
  // Disjointness of the two address blocks (checked in 64-bit so a block
  // ending at the top of the 32-bit space cannot wrap).
  const std::uint64_t a_lo = side_base_[0];
  const std::uint64_t a_hi = a_lo + side_hosts_[0] - 1;
  const std::uint64_t b_lo = side_base_[1];
  const std::uint64_t b_hi = b_lo + side_hosts_[1] - 1;
  if (a_hi > UINT32_MAX || b_hi > UINT32_MAX) {
    FatalConfigError("composed host address range overflows 32 bits");
  }
  if (a_lo <= b_hi && b_lo <= a_hi) {
    FatalConfigError(
        "composed sides have overlapping host address ranges: side A [" +
        std::to_string(a_lo) + ", " + std::to_string(a_hi) + "], side B [" +
        std::to_string(b_lo) + ", " + std::to_string(b_hi) +
        "]; the target-id spaces must be disjoint (set auto_address or move "
        "base_address)");
  }

  // Gateway chips. One optional shared-buffer pool each, covering the
  // attach-down ports plus the border links.
  if (config_.buffer_policy.kind != BufferPolicyKind::kNone) {
    for (std::size_t s = 0; s < 2; ++s) {
      gw_pools_.push_back(MakeBufferPolicy(
          config_.buffer_policy,
          SideAttachCount(side_config(s)) + config_.border_links,
          config_.buffer_bytes));
    }
  }
  for (std::size_t s = 0; s < 2; ++s) {
    gateways_[s] = std::make_unique<SwitchNode>(
        sim_, s == 0 ? "gwA" : "gwB", /*ecmp_salt=*/0x40000 + s);
    gateways_[s]->set_locality_id(0);
  }

  BuildSide(0, make_disc);
  BuildSide(1, make_disc);
  AttachSide(0, make_disc);
  AttachSide(1, make_disc);

  // Border links: gateway-to-gateway, half the border RTT of propagation in
  // each direction, ECMP over all parallel links, annotated with the full
  // inter-DC path base RTT for the sketch.
  const Time border_one_way = config_.border_rtt * 0.5;
  for (std::size_t j = 0; j < config_.border_links; ++j) {
    for (std::size_t s = 0; s < 2; ++s) {
      const std::size_t peer = 1 - s;
      auto port = std::make_unique<EgressPort>(
          sim_, config_.border_rate, border_one_way,
          make_disc(GatewayPool(s)));
      port->ConnectTo(*gateways_[peer]);
      EgressPort& ref = gateways_[s]->AddPort(std::move(port));
      ref.set_base_rtt_hint(InterBaseRtt());
      gateways_[s]->AddRouteRange(
          static_cast<std::uint32_t>(side_base_[peer]),
          static_cast<std::uint32_t>(side_base_[peer] + side_hosts_[peer] - 1),
          ref);
      border_[s].push_back(&ref);
    }
  }
}

void ComposedTopology::BuildSide(std::size_t s,
                                 const DiscFactory& make_disc) {
  const ComposedSideConfig& sc = side_config(s);
  switch (sc.kind) {
    case ComposedSideConfig::Kind::kLeafSpine:
      leaf_spine_[s] =
          std::make_unique<LeafSpine>(sim_, sc.leaf_spine, make_disc);
      side_[s] = leaf_spine_[s].get();
      break;
    case ComposedSideConfig::Kind::kFatTree:
      fat_tree_[s] = std::make_unique<FatTree>(sim_, sc.fat_tree, make_disc);
      side_[s] = fat_tree_[s].get();
      break;
  }
}

void ComposedTopology::AttachSide(std::size_t s,
                                  const DiscFactory& make_disc) {
  const ComposedSideConfig& sc = side_config(s);
  const std::size_t peer = 1 - s;
  const auto remote_lo = static_cast<std::uint32_t>(side_base_[peer]);
  const auto remote_hi =
      static_cast<std::uint32_t>(side_base_[peer] + side_hosts_[peer] - 1);
  const auto local_lo = static_cast<std::uint32_t>(side_base_[s]);
  const auto local_hi =
      static_cast<std::uint32_t>(side_base_[s] + side_hosts_[s] - 1);
  SwitchNode& gw = *gateways_[s];

  // Attach one gateway uplink to every top-tier switch (spines / cores) and
  // one gateway down port back. The uplink lives in the side's switch but
  // deliberately takes no side buffer pool — the side's per-chip pool
  // accounting must match its standalone build exactly (the reduction-parity
  // contract). Remote traffic reaches the top tier through a range route
  // over the existing uplink ECMP sets (leaf-spine) or the default up-routes
  // (fat-tree edges/aggs).
  if (sc.kind == ComposedSideConfig::Kind::kLeafSpine) {
    LeafSpine& ls = *leaf_spine_[s];
    const LeafSpineConfig& cfg = sc.leaf_spine;
    for (std::size_t l = 0; l < ls.leaf_count(); ++l) {
      for (std::size_t sp = 0; sp < ls.spine_count(); ++sp) {
        ls.leaf(l).AddRouteRange(remote_lo, remote_hi,
                                 ls.leaf(l).port(cfg.hosts_per_leaf + sp));
      }
    }
    for (std::size_t sp = 0; sp < ls.spine_count(); ++sp) {
      SwitchNode& spine = ls.spine(sp);
      auto up = std::make_unique<EgressPort>(
          sim_, cfg.rate, config_.attach_delay, make_disc(nullptr));
      up->ConnectTo(gw);
      EgressPort& up_ref = spine.AddPort(std::move(up));
      spine.AddRouteRange(remote_lo, remote_hi, up_ref);

      auto down = std::make_unique<EgressPort>(
          sim_, cfg.rate, config_.attach_delay, make_disc(GatewayPool(s)));
      down->ConnectTo(spine);
      EgressPort& down_ref = gw.AddPort(std::move(down));
      gw.AddRouteRange(local_lo, local_hi, down_ref);
      attach_down_[s].push_back(&down_ref);
    }
  } else {
    FatTree& ft = *fat_tree_[s];
    const FatTreeConfig& cfg = sc.fat_tree;
    for (std::size_t c = 0; c < ft.core_count(); ++c) {
      SwitchNode& core = ft.core(c);
      auto up = std::make_unique<EgressPort>(
          sim_, cfg.rate, config_.attach_delay, make_disc(nullptr));
      up->ConnectTo(gw);
      EgressPort& up_ref = core.AddPort(std::move(up));
      core.AddRouteRange(remote_lo, remote_hi, up_ref);

      auto down = std::make_unique<EgressPort>(
          sim_, cfg.rate, config_.attach_delay, make_disc(GatewayPool(s)));
      down->ConnectTo(core);
      EgressPort& down_ref = gw.AddPort(std::move(down));
      gw.AddRouteRange(local_lo, local_hi, down_ref);
      attach_down_[s].push_back(&down_ref);
    }
  }
}

Time ComposedTopology::InterExtraRtt() const {
  return config_.border_rtt + config_.attach_delay * 4;
}

Time ComposedTopology::InterBaseRtt() const {
  return InterExtraRtt() +
         std::max(SideIntraRtt(config_.side_a), SideIntraRtt(config_.side_b));
}

std::pair<TcpStack*, std::uint32_t> ComposedTopology::SampleIntraPair(
    std::size_t s, Rng& rng) {
  return side_[s]->SampleFlowPair(rng);
}

std::pair<TcpStack*, std::uint32_t> ComposedTopology::SampleInterPair(
    Rng& rng) {
  const std::size_t s = rng.UniformInt(2);
  const std::size_t peer = 1 - s;
  const std::size_t src = rng.UniformInt(side_hosts_[s]);
  const std::size_t dst = rng.UniformInt(side_hosts_[peer]);
  return std::make_pair(
      &side_[s]->stack(src),
      static_cast<std::uint32_t>(side_base_[peer] + dst));
}

Host& ComposedTopology::host(std::size_t i) {
  return i < side_hosts_[0] ? side_[0]->host(i)
                            : side_[1]->host(i - side_hosts_[0]);
}

TcpStack& ComposedTopology::stack(std::size_t i) {
  return i < side_hosts_[0] ? side_[0]->stack(i)
                            : side_[1]->stack(i - side_hosts_[0]);
}

Time ComposedTopology::HostBaseRtt(std::size_t i) const {
  return i < side_hosts_[0] ? side_[0]->HostBaseRtt(i)
                            : side_[1]->HostBaseRtt(i - side_hosts_[0]);
}

void ComposedTopology::AppendRttSamplesUs(
    std::vector<double>& rtts_us) const {
  const std::size_t n = host_count();
  for (std::size_t i = 0; i < n; ++i) {
    rtts_us.push_back(HostBaseRtt(i).ToMicroseconds());
  }
  // Represent the inter-DC paths: a configurable fraction of extra samples
  // at (intra path + border extra), cycling over hosts so per-host extra
  // delays stay represented on the WAN side of the distribution too.
  const auto extra = static_cast<std::size_t>(
      std::llround(config_.inter_rtt_fraction * static_cast<double>(n)));
  const double extra_us = InterExtraRtt().ToMicroseconds();
  for (std::size_t j = 0; j < extra; ++j) {
    rtts_us.push_back(HostBaseRtt(j % n).ToMicroseconds() + extra_us);
  }
}

DataRate ComposedTopology::ReferenceCapacity() const {
  return DataRate::BitsPerSecond(side_[0]->ReferenceCapacity().bps() +
                                 side_[1]->ReferenceCapacity().bps());
}

std::uint32_t ComposedTopology::GlobalAddress(std::size_t i) const {
  return i < side_hosts_[0]
             ? static_cast<std::uint32_t>(side_base_[0] + i)
             : static_cast<std::uint32_t>(side_base_[1] +
                                          (i - side_hosts_[0]));
}

std::pair<TcpStack*, std::uint32_t> ComposedTopology::SampleFlowPair(
    Rng& rng) {
  const std::size_t n = host_count();
  if (n < 2) {
    FatalConfigError("composed SampleFlowPair needs >= 2 hosts, have " +
                     std::to_string(n));
  }
  const std::size_t src = rng.UniformInt(n);
  std::size_t dst = rng.UniformInt(n - 1);
  if (dst >= src) ++dst;
  return std::make_pair(&stack(src), GlobalAddress(dst));
}

std::uint32_t ComposedTopology::IncastTarget() const {
  return side_[0]->IncastTarget();
}

TcpStack& ComposedTopology::IncastSender(std::size_t k) {
  if (host_count() < 2) {
    FatalConfigError("composed incast needs >= 2 hosts, have " +
                     std::to_string(host_count()));
  }
  return stack(1 + k % (host_count() - 1));
}

EgressPort* ComposedTopology::ResolvePort(int target) {
  if (target < 0) return border_[0].empty() ? nullptr : border_[0][0];
  std::size_t id = static_cast<std::size_t>(target);
  if (id < host_count()) return &host(id).nic();
  id -= host_count();
  if (id < bottleneck_count()) return &bottleneck(id);
  return nullptr;
}

std::string ComposedTopology::DescribePortTargets() const {
  const std::size_t n = host_count();
  const std::size_t b_a = side_[0]->bottleneck_count();
  const std::size_t b_b = side_[1]->bottleneck_count();
  const std::size_t gw_a = gateways_[0]->port_count();
  const std::size_t gw_b = gateways_[1]->port_count();
  return "-1 = first border link (gateway A egress), 0.." +
         std::to_string(n - 1) + " = host NICs (side A then side B), " +
         std::to_string(n) + ".." + std::to_string(n + b_a - 1) +
         " = side A switch egress ports, " + std::to_string(n + b_a) + ".." +
         std::to_string(n + b_a + b_b - 1) + " = side B switch egress ports, " +
         std::to_string(n + b_a + b_b) + ".." +
         std::to_string(n + b_a + b_b + gw_a - 1) +
         " = gateway A ports (attach downs then border links), " +
         std::to_string(n + b_a + b_b + gw_a) + ".." +
         std::to_string(n + b_a + b_b + gw_a + gw_b - 1) +
         " = gateway B ports";
}

std::size_t ComposedTopology::bottleneck_count() const {
  return side_[0]->bottleneck_count() + side_[1]->bottleneck_count() +
         gateways_[0]->port_count() + gateways_[1]->port_count();
}

EgressPort& ComposedTopology::bottleneck(std::size_t i) {
  if (i < side_[0]->bottleneck_count()) return side_[0]->bottleneck(i);
  i -= side_[0]->bottleneck_count();
  if (i < side_[1]->bottleneck_count()) return side_[1]->bottleneck(i);
  i -= side_[1]->bottleneck_count();
  if (i < gateways_[0]->port_count()) return gateways_[0]->port(i);
  i -= gateways_[0]->port_count();
  if (i < gateways_[1]->port_count()) return gateways_[1]->port(i);
  assert(false && "bottleneck index out of range");
  return gateways_[0]->port(0);
}

std::uint64_t ComposedTopology::TotalLinkDownDrops() const {
  std::uint64_t total =
      side_[0]->TotalLinkDownDrops() + side_[1]->TotalLinkDownDrops();
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t p = 0; p < gateways_[s]->port_count(); ++p) {
      total += gateways_[s]->port(p).counters().dropped_link_down;
    }
  }
  return total;
}

std::size_t ComposedTopology::buffer_pool_count() const {
  return side_[0]->buffer_pool_count() + side_[1]->buffer_pool_count() +
         gw_pools_.size();
}

BufferPolicy* ComposedTopology::buffer_pool(std::size_t i) {
  if (i < side_[0]->buffer_pool_count()) return side_[0]->buffer_pool(i);
  i -= side_[0]->buffer_pool_count();
  if (i < side_[1]->buffer_pool_count()) return side_[1]->buffer_pool(i);
  i -= side_[1]->buffer_pool_count();
  return i < gw_pools_.size() ? gw_pools_[i].get() : nullptr;
}

}  // namespace ecnsharp

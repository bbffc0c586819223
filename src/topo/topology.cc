#include "topo/topology.h"

#include "sched/fifo_queue_disc.h"
#include "sim/logging.h"

namespace ecnsharp {

void Topology::AppendRttSamplesUs(std::vector<double>& rtts_us) const {
  for (std::size_t i = 0; i < host_count(); ++i) {
    rtts_us.push_back(HostBaseRtt(i).ToMicroseconds());
  }
}

std::pair<TcpStack*, std::uint32_t> Topology::SampleFlowPair(Rng& rng) {
  const std::size_t n = host_count();
  // A 1-host fabric is constructible (loopback-ish probes) but cannot form
  // a (src, dst != src) pair — the UniformInt(n - 1) draw below would be
  // degenerate. Fail fast instead of sampling garbage.
  if (n < 2) {
    FatalConfigError("SampleFlowPair needs >= 2 hosts, have " +
                     std::to_string(n));
  }
  const std::size_t src = rng.UniformInt(n);
  std::size_t dst = rng.UniformInt(n - 1);
  if (dst >= src) ++dst;
  return std::make_pair(tables_.stacks[src], tables_.hosts[dst]->address());
}

std::uint32_t Topology::IncastTarget() const {
  return tables_.hosts.at(0)->address();
}

TcpStack& Topology::IncastSender(std::size_t k) {
  // With a single host the modulus below would be zero (UB); the burst has
  // no sender distinct from its target anyway.
  if (host_count() < 2) {
    FatalConfigError("incast needs >= 2 hosts, have " +
                     std::to_string(host_count()));
  }
  return *tables_.stacks[1 + k % (host_count() - 1)];
}

EgressPort* Topology::ResolvePort(int target) {
  if (target < 0) return tables_.primary_port;
  auto id = static_cast<std::size_t>(target);
  if (id < host_count()) return &tables_.hosts[id]->nic();
  id -= host_count();
  return id < bottleneck_count() ? tables_.bottlenecks[id] : nullptr;
}

std::string Topology::DescribePortTargets() const {
  return "-1 = primary bottleneck, 0.." + std::to_string(host_count() - 1) +
         " = host NICs";
}

QueueDiscStats Topology::TotalBottleneckStats() const {
  QueueDiscStats total;
  for (const EgressPort* port : tables_.bottlenecks) {
    const QueueDiscStats& stats = port->queue_disc().stats();
    total.enqueued += stats.enqueued;
    total.dequeued += stats.dequeued;
    total.dropped_overflow += stats.dropped_overflow;
    total.dropped_aqm += stats.dropped_aqm;
    total.purged += stats.purged;
    total.ce_marked += stats.ce_marked;
  }
  return total;
}

std::uint64_t Topology::TotalLinkDownDrops() const {
  std::uint64_t total = 0;
  for (const Host* host : tables_.hosts) {
    total += host->nic().counters().dropped_link_down;
  }
  for (const EgressPort* port : tables_.bottlenecks) {
    total += port->counters().dropped_link_down;
  }
  return total;
}

void Topology::AddHost(Host& host, TcpStack& stack, Time path_rtt) {
  tables_.hosts.push_back(&host);
  tables_.stacks.push_back(&stack);
  tables_.host_rtts.push_back(path_rtt);
}

void Topology::IndexSwitchPorts(Topology& topo) {
  std::vector<EgressPort*>& ports = topo.tables_.bottlenecks;
  ports.clear();
  for (SwitchNode* sw : topo.tables_.switches) {
    for (std::size_t p = 0; p < sw->port_count(); ++p) {
      ports.push_back(&sw->port(p));
    }
  }
}

void Topology::AppendTables(const Topology& part) {
  const auto append = [](auto& to, const auto& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(tables_.hosts, part.tables_.hosts);
  append(tables_.stacks, part.tables_.stacks);
  append(tables_.host_rtts, part.tables_.host_rtts);
  append(tables_.switches, part.tables_.switches);
  append(tables_.pools, part.tables_.pools);
}

EgressPort& Topology::BuildAccessHost(
    Simulator& sim, SwitchNode& tor, std::uint32_t address,
    const AccessLink& link, const DiscFactory& make_down_disc,
    BufferPolicy* pool, std::vector<std::unique_ptr<Host>>& hosts,
    std::vector<std::unique_ptr<TcpStack>>& stacks) {
  auto host = std::make_unique<Host>(sim, address);

  // Host NIC toward the ToR: large drop-tail, never the intended bottleneck.
  auto nic = std::make_unique<EgressPort>(
      sim, link.rate, link.delay,
      std::make_unique<FifoQueueDisc>(link.nic_buffer_bytes, nullptr));
  nic->ConnectTo(tor);
  host->AttachNic(std::move(nic));

  auto down = std::make_unique<EgressPort>(sim, link.rate, link.delay,
                                           make_down_disc(pool));
  down->ConnectTo(*host);
  EgressPort& down_ref = tor.AddPort(std::move(down));
  tor.AddRoute(host->address(), down_ref);

  stacks.push_back(std::make_unique<TcpStack>(*host, link.tcp));
  hosts.push_back(std::move(host));
  return down_ref;
}

}  // namespace ecnsharp

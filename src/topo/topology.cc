#include "topo/topology.h"

namespace ecnsharp {

void Topology::AppendRttSamplesUs(std::vector<double>& rtts_us) const {
  for (std::size_t i = 0; i < host_count(); ++i) {
    rtts_us.push_back(HostBaseRtt(i).ToMicroseconds());
  }
}

std::string Topology::DescribePortTargets() const {
  return "-1 = primary bottleneck, 0.." + std::to_string(host_count() - 1) +
         " = host NICs";
}

std::vector<EgressPort*> Topology::BottleneckPorts() {
  std::vector<EgressPort*> ports;
  ports.reserve(bottleneck_count());
  for (std::size_t i = 0; i < bottleneck_count(); ++i) {
    ports.push_back(&bottleneck(i));
  }
  return ports;
}

QueueDiscStats Topology::TotalBottleneckStats() {
  QueueDiscStats total;
  for (std::size_t i = 0; i < bottleneck_count(); ++i) {
    const QueueDiscStats& stats = bottleneck(i).queue_disc().stats();
    total.enqueued += stats.enqueued;
    total.dequeued += stats.dequeued;
    total.dropped_overflow += stats.dropped_overflow;
    total.dropped_aqm += stats.dropped_aqm;
    total.purged += stats.purged;
    total.ce_marked += stats.ce_marked;
  }
  return total;
}

}  // namespace ecnsharp

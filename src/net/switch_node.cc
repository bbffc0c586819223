#include "net/switch_node.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace ecnsharp {

namespace {

std::string BlockError(const std::string& name, std::uint32_t lo,
                       std::uint32_t hi, const std::string& what) {
  return "switch " + name + ": route block [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "] " + what;
}

}  // namespace

void SwitchNode::AddRouteRange(std::uint32_t lo, std::uint32_t hi,
                               EgressPort& port) {
  if (lo > hi) FatalConfigError(BlockError(name_, lo, hi, "is empty"));
  // First block whose lo >= lo; it and its predecessor are the only ones
  // that can overlap [lo, hi].
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), lo,
      [](const Block& b, std::uint32_t value) { return b.lo < value; });
  if (it != blocks_.end() && it->lo == lo && it->hi == hi) {
    it->ports.push_back(&port);  // same block: widen the ECMP set
    return;
  }
  const Block* clash = nullptr;
  if (it != blocks_.end() && it->lo <= hi) clash = &*it;
  if (it != blocks_.begin() && std::prev(it)->hi >= lo) clash = &*std::prev(it);
  if (clash != nullptr) {
    FatalConfigError(BlockError(
        name_, lo, hi,
        "overlaps block [" + std::to_string(clash->lo) + ", " +
            std::to_string(clash->hi) + "] without coinciding"));
  }
  blocks_.insert(it, Block{lo, hi, {&port}});
}

const std::vector<EgressPort*>& SwitchNode::Lookup(std::uint32_t dst) const {
  // First block whose lo > dst; the candidate (if any) is the one before it.
  const auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), dst,
      [](std::uint32_t value, const Block& b) { return value < b.lo; });
  if (it == blocks_.begin() || std::prev(it)->hi < dst) return default_route_;
  return std::prev(it)->ports;
}

void SwitchNode::HandlePacket(std::unique_ptr<Packet> pkt) {
  ++rx_packets_;
  const std::vector<EgressPort*>& ports = Lookup(pkt->flow.dst);
  if (ports.empty()) {
    ++no_route_drops_;
    return;  // packet destroyed: no route
  }
  EgressPort* out = ports.front();
  if (ports.size() > 1) {
    out = ports[EcmpBucket(FlowKeyHash{}(pkt->flow), ecmp_salt_,
                           ports.size())];
  }
  out->Enqueue(std::move(pkt));
}

}  // namespace ecnsharp

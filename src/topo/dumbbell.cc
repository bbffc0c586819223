#include "topo/dumbbell.h"

#include <cassert>
#include <string>
#include <utility>

#include "sched/fifo_queue_disc.h"
#include "sim/logging.h"

namespace ecnsharp {

Dumbbell::Dumbbell(Simulator& sim, const DumbbellConfig& config,
                   const DiscFactory& make_disc)
    : sim_(sim), config_(config) {
  // Not an assert: a 0-sender dumbbell would make SampleFlowPair's
  // UniformInt(0) draw and IncastSender's k % 0 undefined in release
  // builds, where asserts compile out.
  if (config_.senders < 1) {
    FatalConfigError("dumbbell needs >= 1 sender, got senders=" +
                     std::to_string(config_.senders));
  }
  // One pool per switch chip: every switch egress port registers a queue.
  pool_ = MakeBufferPolicy(config_.buffer_policy,
                           /*queue_count=*/config_.senders + 1,
                           /*per_queue_fallback=*/config_.buffer_bytes);
  switch_ = std::make_unique<SwitchNode>(sim_, "tor", /*ecmp_salt=*/1);
  const Time link_delay = config_.base_rtt / 4;
  const std::size_t total_hosts = config_.senders + 1;

  for (std::size_t i = 0; i < total_hosts; ++i) {
    auto host = std::make_unique<Host>(sim_, static_cast<std::uint32_t>(i));
    // Host NIC toward the switch: large drop-tail.
    auto nic = std::make_unique<EgressPort>(
        sim_, config_.rate, link_delay,
        std::make_unique<FifoQueueDisc>(config_.host_buffer_bytes, nullptr));
    nic->ConnectTo(*switch_);
    host->AttachNic(std::move(nic));

    // Switch port toward this host: the AQM under test for the receiver,
    // drop-tail for senders (carries mostly ACKs).
    const bool is_receiver = (i == total_hosts - 1);
    std::unique_ptr<QueueDisc> disc;
    if (is_receiver) {
      disc = make_disc(pool_.get());
    } else if (pool_ != nullptr) {
      disc = std::make_unique<FifoQueueDisc>(*pool_, nullptr);
    } else {
      disc = std::make_unique<FifoQueueDisc>(config_.buffer_bytes, nullptr);
    }
    auto port = std::make_unique<EgressPort>(sim_, config_.rate, link_delay,
                                             std::move(disc));
    port->ConnectTo(*host);
    EgressPort& port_ref = switch_->AddPort(std::move(port));
    switch_->AddRoute(host->address(), port_ref);
    if (is_receiver) bottleneck_port_ = &port_ref;

    stacks_.push_back(std::make_unique<TcpStack>(*host, config_.tcp));
    hosts_.push_back(std::move(host));
  }
}

std::uint32_t Dumbbell::receiver_address() const {
  return hosts_.back()->address();
}

void Dumbbell::SetSenderExtraDelays(const std::vector<Time>& extras) {
  assert(extras.size() == config_.senders);
  for (std::size_t i = 0; i < extras.size(); ++i) {
    hosts_[i]->set_extra_egress_delay(extras[i]);
  }
}

std::pair<TcpStack*, std::uint32_t> Dumbbell::SampleFlowPair(Rng& rng) {
  const std::size_t sender = rng.UniformInt(config_.senders);
  return std::make_pair(&sender_stack(sender), receiver_address());
}

EgressPort* Dumbbell::ResolvePort(int target) {
  if (target < 0) return bottleneck_port_;
  if (static_cast<std::size_t>(target) < config_.senders) {
    return &hosts_[static_cast<std::size_t>(target)]->nic();
  }
  return nullptr;
}

EgressPort& Dumbbell::bottleneck(std::size_t i) {
  assert(i == 0);
  (void)i;
  return *bottleneck_port_;
}

std::uint64_t Dumbbell::TotalLinkDownDrops() const {
  std::uint64_t total = bottleneck_port_->counters().dropped_link_down;
  for (std::size_t i = 0; i < config_.senders; ++i) {
    total += hosts_[i]->nic().counters().dropped_link_down;
  }
  return total;
}

}  // namespace ecnsharp

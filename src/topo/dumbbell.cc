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
  const AccessLink link{config_.rate, config_.base_rtt / 4,
                        config_.host_buffer_bytes, config_.tcp};
  // Switch ports toward senders carry mostly ACKs: drop-tail.
  const DiscFactory drop_tail = [this](BufferPolicy* pool) {
    return std::make_unique<FifoQueueDisc>(config_.buffer_bytes, nullptr,
                                           pool);
  };
  for (std::size_t i = 0; i <= config_.senders; ++i) {
    const bool is_receiver = (i == config_.senders);
    EgressPort& down = BuildAccessHost(
        sim_, *switch_, static_cast<std::uint32_t>(i), link,
        is_receiver ? make_disc : drop_tail, pool_.get(), hosts_, stacks_);
    if (is_receiver) {
      bottleneck_port_ = &down;
    } else {
      AddHost(*hosts_[i], *stacks_[i], config_.base_rtt);
    }
  }
  tables_.bottlenecks.push_back(bottleneck_port_);
  tables_.primary_port = bottleneck_port_;
  if (pool_) tables_.pools.push_back(pool_.get());
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
  return target < static_cast<int>(config_.senders)
             ? Topology::ResolvePort(target)
             : nullptr;
}

}  // namespace ecnsharp

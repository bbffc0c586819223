#include "buffer/buffer_policy.h"

#include <string>

#include "sim/logging.h"

namespace ecnsharp {

BufferPolicy::BufferPolicy(std::uint64_t total_bytes)
    : total_bytes_(total_bytes) {}

std::size_t BufferPolicy::RegisterQueue(std::uint8_t priority) {
  QueueState state;
  state.priority = priority;
  queues_.push_back(state);
  return queues_.size() - 1;
}

bool BufferPolicy::TryReserve(std::size_t queue, std::uint32_t packet_bytes) {
  QueueState& state = queues_.at(queue);
  if (used_bytes_ + packet_bytes > total_bytes_) return false;
  if (!Admit(state, packet_bytes)) return false;
  used_bytes_ += packet_bytes;
  state.bytes += packet_bytes;
  return true;
}

void BufferPolicy::Release(std::size_t queue, std::uint32_t packet_bytes) {
  QueueState& state = queues_.at(queue);
  if (state.bytes < packet_bytes) {
    FatalError("buffer policy release underflow: queue " +
               std::to_string(queue) + " holds " +
               std::to_string(state.bytes) + " bytes, released " +
               std::to_string(packet_bytes));
  }
  state.bytes -= packet_bytes;
  used_bytes_ -= packet_bytes;  // the pool holds the sum of its queues
}

std::uint64_t BufferPolicy::queue_bytes(std::size_t queue) const {
  return queues_.at(queue).bytes;
}

std::uint8_t BufferPolicy::queue_priority(std::size_t queue) const {
  return queues_.at(queue).priority;
}

}  // namespace ecnsharp

// Configuration surface for shared-buffer policies: the kind/parameters
// struct carried on topology and experiment configs, each kind's name in the
// config record, and the factory that builds a policy for one switch chip.
#ifndef ECNSHARP_BUFFER_POLICY_SPEC_H_
#define ECNSHARP_BUFFER_POLICY_SPEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_policy.h"

namespace ecnsharp {

// kNone keeps the legacy statically buffered ports (no pool at all) — the
// default, byte-identical to runs predating this subsystem.
enum class BufferPolicyKind { kNone, kStatic, kDynamicThreshold, kDtHeadroom };

struct BufferPolicyConfig {
  BufferPolicyKind kind = BufferPolicyKind::kNone;
  // Pool size per switch chip. 0 = queue_count * the topology's legacy
  // per-port buffer, i.e. the same silicon rearranged, not extra memory.
  std::uint64_t total_bytes = 0;
  double alpha = 1.0;
  // Per-priority alpha overrides (see DynamicThresholdPolicy::AlphaFor).
  std::vector<double> priority_alpha;
  // Guaranteed per-queue slice for kDtHeadroom; 0 = one full packet.
  std::uint64_t headroom_bytes = 0;
};

const char* BufferPolicyKindName(BufferPolicyKind kind);

// Builds the policy for one switch with `queue_count` egress queues.
// `per_queue_fallback` is the topology's legacy per-port buffer, used when
// config.total_bytes == 0 (and as the static split's slice size). Returns
// nullptr for kNone. Fails fast (exit 2) on an alpha or per-priority alpha
// that is not finite and > 0, and on a pool or static slice smaller than one
// full packet.
std::unique_ptr<BufferPolicy> MakeBufferPolicy(const BufferPolicyConfig& config,
                                               std::size_t queue_count,
                                               std::uint64_t per_queue_fallback);

}  // namespace ecnsharp

#endif  // ECNSHARP_BUFFER_POLICY_SPEC_H_

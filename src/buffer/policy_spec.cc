#include "buffer/policy_spec.h"

#include <cmath>
#include <string>

#include "buffer/policies.h"
#include "sim/logging.h"

namespace ecnsharp {

namespace {
// One full-sized packet (buffer/ sits below net/, so no net/packet.h here):
// the smallest usable pool or static slice, and the default DT headroom.
constexpr std::uint64_t kOnePacketBytes = 1500;
}  // namespace

const char* BufferPolicyKindName(BufferPolicyKind kind) {
  switch (kind) {
    case BufferPolicyKind::kNone:
      return "none";
    case BufferPolicyKind::kStatic:
      return "static";
    case BufferPolicyKind::kDynamicThreshold:
      return "dt";
    case BufferPolicyKind::kDtHeadroom:
      return "dt-headroom";
  }
  return "?";
}

std::unique_ptr<BufferPolicy> MakeBufferPolicy(const BufferPolicyConfig& config,
                                               std::size_t queue_count,
                                               std::uint64_t per_queue_fallback) {
  if (config.kind == BufferPolicyKind::kNone) return nullptr;
  const std::uint64_t total =
      config.total_bytes != 0
          ? config.total_bytes
          : per_queue_fallback * static_cast<std::uint64_t>(queue_count);
  // A pool or slice smaller than one packet can never admit one: every
  // flow would stall until the run's time cap.
  if (total < kOnePacketBytes) {
    FatalConfigError("buffer policy needs a non-zero pool (total_bytes or "
                     "per-port fallback) of at least one full packet "
                     "(1500 B), got " +
                     std::to_string(total) + " B");
  }
  const std::uint64_t static_share =
      queue_count != 0 ? total / queue_count : total;
  if (config.kind == BufferPolicyKind::kStatic &&
      static_share < kOnePacketBytes) {
    FatalConfigError("static buffer slice of " +
                     std::to_string(static_share) +
                     " B (pool / queue count) cannot hold one full packet "
                     "(1500 B)");
  }
  // NaN passes a plain `<= 0` check, and an infinite alpha overflows the DT
  // limit's conversion to a byte count: refuse both.
  if (!(std::isfinite(config.alpha) && config.alpha > 0.0)) {
    FatalConfigError("buffer policy alpha must be > 0 and finite, got " +
                     std::to_string(config.alpha));
  }
  for (double alpha : config.priority_alpha) {
    if (!(std::isfinite(alpha) && alpha > 0.0)) {
      FatalConfigError(
          "buffer policy per-priority alpha must be > 0 and finite, got " +
          std::to_string(alpha));
    }
  }
  switch (config.kind) {
    case BufferPolicyKind::kStatic:
      return std::make_unique<StaticSplitPolicy>(total, static_share);
    case BufferPolicyKind::kDynamicThreshold:
      return std::make_unique<DynamicThresholdPolicy>(total, config.alpha,
                                                      config.priority_alpha);
    case BufferPolicyKind::kDtHeadroom: {
      const std::uint64_t headroom = config.headroom_bytes != 0
                                         ? config.headroom_bytes
                                         : kOnePacketBytes;
      return std::make_unique<HeadroomDtPolicy>(total, config.alpha, headroom,
                                                config.priority_alpha);
    }
    case BufferPolicyKind::kNone:
      break;
  }
  return nullptr;
}

}  // namespace ecnsharp

#include "workload/traffic_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <string>

#include "sim/logging.h"

namespace ecnsharp {

TrafficGenerator::TrafficGenerator(
    Simulator&, const EmpiricalCdf& sizes, const TrafficConfig& config,
    std::function<std::pair<TcpStack*, std::uint32_t>(Rng&)> pick_pair,
    TcpSender::CompletionCallback on_complete, Rng rng)
    : sizes_(sizes),
      config_(config),
      pick_pair_(std::move(pick_pair)),
      on_complete_(std::move(on_complete)),
      rng_(rng) {
  // A zero, negative or NaN load has no Poisson gap: 1 / rate would be
  // infinite or negative and overflow Time::FromSeconds.
  if (!(std::isfinite(config_.load) && config_.load > 0.0)) {
    FatalConfigError("traffic load must be finite and > 0, got " +
                     std::to_string(config_.load));
  }
  // Above 1 every flow would silently run CUBIC; NaN, none.
  if (!(config_.cubic_fraction >= 0.0 && config_.cubic_fraction <= 1.0)) {
    FatalConfigError("cubic_fraction must be in [0, 1], got " +
                     std::to_string(config_.cubic_fraction));
  }
}

double TrafficGenerator::ArrivalRate() const {
  const double bits_per_flow = sizes_.Mean() * 8.0;
  return config_.load *
         static_cast<double>(config_.reference_capacity.bps()) /
         bits_per_flow;
}

void TrafficGenerator::Start() {
  const double mean_gap_s = 1.0 / ArrivalRate();
  Time at = config_.start_time;
  for (std::size_t i = 0; i < config_.flow_count; ++i) {
    const double gap_s = rng_.Exponential(mean_gap_s);
    // A vanishing load draws gaps past what Time's int64 ns can hold.
    if (!(static_cast<double>(at.ns()) + gap_s * 1e9 < 0x1p62)) {
      std::ostringstream message;
      message << "traffic load " << config_.load
              << " puts a flow arrival at 2^62 ns or later";
      FatalConfigError(message.str());
    }
    at += Time::FromSeconds(gap_s);
    const auto size = static_cast<std::uint64_t>(
        std::max(1.0, sizes_.Sample(rng_)));
    auto [stack, dst] = pick_pair_(rng_);
    assert(stack != nullptr);
    CcKind cc = CcKind::kNewReno;
    if (config_.cubic_fraction > 0.0 &&
        rng_.Uniform() < config_.cubic_fraction) {
      cc = CcKind::kCubic;
    }
    stack->host().sim().ScheduleAt(at, [this, stack, dst, size, cc] {
      started_.fetch_add(1, std::memory_order_relaxed);
      stack->StartFlow(
          dst, size,
          [this](const FlowRecord& record) {
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (on_complete_) on_complete_(record);
          },
          /*traffic_class=*/0, cc);
    });
  }
}

}  // namespace ecnsharp

#include "transport/cubic_sender.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ecnsharp {

CubicSender::CubicSender(Host& host, const TcpConfig& config, FlowKey flow,
                         std::uint64_t flow_size, std::uint8_t traffic_class,
                         CompletionCallback on_complete)
    : TcpSender(host, config, flow, flow_size, traffic_class,
                std::move(on_complete)) {
  record_.cc = CcKind::kCubic;
}

void CubicSender::CongestionAvoidanceIncrease(std::uint64_t newly_acked) {
  const double mss = static_cast<double>(config_.mss);
  if (!hot_.epoch_valid) {
    // First CA ack after a congestion event (or after slow start with no
    // loss yet): start a cubic epoch at the current window.
    hot_.epoch_valid = true;
    hot_.epoch_start = host_.sim().Now();
    if (hot_.w_max < cwnd_) hot_.w_max = cwnd_;
    hot_.origin = hot_.w_max;
    // K = cbrt((W_max - cwnd) / C), computed in segments per RFC 8312 §4.1.
    const double delta_seg = (hot_.origin - cwnd_) / mss;
    hot_.k = std::cbrt(std::max(delta_seg, 0.0) / config_.cubic_c);
    hot_.w_est = cwnd_;
  }

  // Target: the cubic curve evaluated one RTT ahead of now.
  const double rtt_s = rtt_valid_ ? srtt_.ToSeconds() : 0.0;
  const double t =
      (host_.sim().Now() - hot_.epoch_start).ToSeconds() + rtt_s - hot_.k;
  double target = hot_.origin + config_.cubic_c * t * t * t * mss;
  // RFC 8312 §4.1 clamps the per-RTT ramp to 1.5x the current window.
  target = std::min(target, 1.5 * cwnd_);

  // TCP-friendly region (§4.2): track what Reno with beta=cubic_beta would
  // achieve; never grow slower than it.
  const double reno_ai =
      3.0 * (1.0 - config_.cubic_beta) / (1.0 + config_.cubic_beta);
  hot_.w_est += reno_ai * mss * static_cast<double>(newly_acked) / cwnd_;
  target = std::max(target, hot_.w_est);

  if (target > cwnd_) {
    // Spread the climb to `target` over roughly one window of acks.
    cwnd_ += (target - cwnd_) * static_cast<double>(newly_acked) / cwnd_;
  }
}

void CubicSender::OnCongestionEvent() {
  // Fast convergence (§4.6): if the window stopped short of the previous
  // W_max, the pipe shrank — release capacity sooner by remembering less.
  if (config_.cubic_fast_convergence && cwnd_ < hot_.w_max) {
    hot_.w_max = cwnd_ * (1.0 + config_.cubic_beta) / 2.0;
  } else {
    hot_.w_max = cwnd_;
  }
  hot_.epoch_valid = false;
}

double CubicSender::SsthreshAfterLoss() {
  OnCongestionEvent();
  return std::max(cwnd_ * config_.cubic_beta,
                  2.0 * static_cast<double>(config_.mss));
}

void CubicSender::ReduceWindowOnEcn(double /*factor*/) {
  // Classic-ECN Cubic cuts by the same beta as a loss (§4.6), not the
  // caller's half/alpha factor.
  OnCongestionEvent();
  TcpSender::ReduceWindowOnEcn(1.0 - config_.cubic_beta);
}

}  // namespace ecnsharp

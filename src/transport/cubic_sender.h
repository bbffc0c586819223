// CUBIC congestion control (RFC 8312) on top of the TcpSender machinery.
//
// Reuses the base sender's sequencing, NewReno-style recovery plumbing, RTO,
// pacing and tracing; overrides only the congestion-control hooks: cubic
// window growth W(t) = C*(t-K)^3 + W_max with the TCP-friendly Reno region,
// beta = 0.7 multiplicative decrease with fast convergence, and a
// classic-ECN response that cuts by the same beta (when the flow's TcpConfig
// enables ECN at all — the mixed-CC experiments default Cubic to non-ECT
// so only drops signal it). Windows are kept in bytes like the base class;
// the cubic polynomial runs in segment units as the RFC specifies.
#ifndef ECNSHARP_TRANSPORT_CUBIC_SENDER_H_
#define ECNSHARP_TRANSPORT_CUBIC_SENDER_H_

#include "transport/tcp_sender.h"

namespace ecnsharp {

class CubicSender : public TcpSender {
 public:
  CubicSender(Host& host, const TcpConfig& config, FlowKey flow,
              std::uint64_t flow_size, std::uint8_t traffic_class,
              CompletionCallback on_complete);

  double w_max_bytes() const { return hot_.w_max; }

 protected:
  void CongestionAvoidanceIncrease(std::uint64_t newly_acked) override;
  double SsthreshAfterLoss() override;
  void ReduceWindowOnEcn(double factor) override;

 private:
  // Controller-private hot state: W_max plus the epoch established on the
  // first CA ack after a congestion event.
  struct CubicHotState {
    double w_max = 0.0;     // window size at the last congestion event, bytes
    bool epoch_valid = false;
    Time epoch_start = Time::Zero();
    double k = 0.0;         // K, seconds
    double origin = 0.0;    // W_max at epoch start, bytes
    double w_est = 0.0;     // TCP-friendly (Reno-tracking) estimate, bytes
  };

  // Records the loss/mark event for the cubic polynomial: updates W_max
  // (with fast convergence) and invalidates the epoch so the next CA ack
  // starts a fresh one.
  void OnCongestionEvent();

  CubicHotState hot_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRANSPORT_CUBIC_SENDER_H_

// TCP sender state machine.
//
// Models a one-directional bulk transfer of `flow_size` bytes: slow start,
// congestion avoidance, NewReno-style fast retransmit/recovery, an RFC 6298
// retransmission timer with exponential backoff, and ECN reaction in either
// classic (RFC 3168) or DCTCP (RFC 8257) mode. Data is metadata-only; the
// receiver acknowledges byte offsets cumulatively.
#ifndef ECNSHARP_TRANSPORT_TCP_SENDER_H_
#define ECNSHARP_TRANSPORT_TCP_SENDER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "net/host.h"
#include "net/packet.h"
#include "sim/timer.h"
#include "trace/transport_tracer.h"
#include "transport/tcp_config.h"

namespace ecnsharp {

// Outcome summary handed to the completion callback.
struct FlowRecord {
  FlowKey flow;
  std::uint64_t size_bytes = 0;
  Time start_time = Time::Zero();
  Time completion_time = Time::Zero();
  std::uint32_t timeouts = 0;
  std::uint32_t fast_retransmits = 0;
  // Which controller drove the flow (CubicSender stamps kCubic) — lets the
  // FCT collector split results per CC in mixed-CC runs.
  CcKind cc = CcKind::kNewReno;

  Time Fct() const { return completion_time - start_time; }
};

class TcpSender {
 public:
  using CompletionCallback = std::function<void(const FlowRecord&)>;

  TcpSender(Host& host, const TcpConfig& config, FlowKey flow,
            std::uint64_t flow_size, std::uint8_t traffic_class,
            CompletionCallback on_complete);
  virtual ~TcpSender() = default;

  // The transport observers to report to: the owning stack's list (not
  // owned; it must outlive the sender). Set before Start() so the initial
  // window is recorded. A bare sender reports to none.
  void set_tracers(const TransportTracerList& tracers) { tracers_ = &tracers; }

  // Begins transmission (sends the initial window).
  void Start();

  // Called by the stack for every ACK of this flow.
  void OnAck(const Packet& ack);

  bool complete() const { return complete_; }
  const FlowKey& flow() const { return flow_; }
  const FlowRecord& record() const { return record_; }
  double cwnd_bytes() const { return cwnd_; }
  double dctcp_alpha() const { return dctcp_alpha_; }
  std::uint64_t bytes_acked() const { return snd_una_; }

 protected:
  // Congestion-control hooks. The defaults are the NewReno behaviour and are
  // kept bit-identical to the pre-refactor arithmetic (the golden parity
  // tests pin this); CubicSender overrides all three.
  //
  // Additive growth applied once per ACK of `newly_acked` bytes while in
  // congestion avoidance (the caller clamps to max_cwnd_bytes afterwards).
  virtual void CongestionAvoidanceIncrease(std::uint64_t newly_acked);
  // New ssthresh after a loss event (fast retransmit or RTO), computed from
  // the pre-cut cwnd_. May mutate controller-private epoch state.
  virtual double SsthreshAfterLoss();
  // Multiplicative ECN cut: cwnd *= (1 - factor), ssthresh follows.
  virtual void ReduceWindowOnEcn(double factor);

  Host& host_;
  TcpConfig config_;
  FlowRecord record_;

  // Congestion control (bytes).
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;

  // RTT estimate, shared with derived controllers (CUBIC's TCP-friendly
  // region needs srtt_).
  bool rtt_valid_ = false;
  Time srtt_ = Time::Zero();

 private:
  void SendAvailable();
  void PacedSend();
  void SendSegment(std::uint64_t seq, bool is_retransmit);
  void OnNewDataAcked(std::uint64_t ack_no, bool ece);
  void OnDupAck();
  void OnRtoExpired();
  void RestartRtoTimer();
  void UpdateRttEstimate(Time sample);
  Time CurrentRto() const;
  void HandleEceClassic();
  void DctcpWindowUpdate(std::uint64_t newly_acked, bool ece);
  void Complete();
  // Reports cwnd_/ssthresh_ to the tracers if they changed since last emit.
  void EmitCwnd();

  FlowKey flow_;
  std::uint64_t flow_size_;
  std::uint8_t traffic_class_;
  CompletionCallback on_complete_;

  // Sequence state (byte offsets within the flow).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;

  std::uint32_t dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_point_ = 0;

  // ECN.
  bool cwr_pending_ = false;          // set CWR on the next data segment
  std::uint64_t ecn_cut_window_end_ = 0;  // classic: one cut per window
  double dctcp_alpha_;
  std::uint64_t dctcp_window_end_ = 0;
  std::uint64_t dctcp_bytes_acked_ = 0;
  std::uint64_t dctcp_bytes_marked_ = 0;

  // RTT estimation / RTO (RFC 6298); srtt_/rtt_valid_ live in the
  // protected block above.
  Time rttvar_ = Time::Zero();
  std::uint32_t rto_backoff_ = 0;  // consecutive timeouts
  Timer rto_timer_;
  Timer pace_timer_;
  // Karn's algorithm: one outstanding un-retransmitted RTT probe, armed
  // only on data never sent before (seq >= sent_high_). A go-back-N resend
  // re-covers old sequence ranges with is_retransmit=false segments; an ACK
  // for the *original* transmission of that range would otherwise match a
  // probe armed on the resend and yield a near-zero RTT sample.
  bool probe_armed_ = false;
  std::uint64_t probe_seq_end_ = 0;
  std::uint64_t sent_high_ = 0;  // highest sequence ever sent
  Time probe_sent_at_ = Time::Zero();

  bool complete_ = false;

  // Transport tracing.
  static const TransportTracerList kNoTracers;
  const TransportTracerList* tracers_ = &kNoTracers;
  double last_cwnd_emitted_ = -1.0;
  double last_ssthresh_emitted_ = -1.0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRANSPORT_TCP_SENDER_H_

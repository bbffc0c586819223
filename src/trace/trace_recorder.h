// Flight-recorder trace collector.
//
// A TraceRecorder owns:
//   - a fixed-capacity ring buffer of TraceEvents (oldest overwritten first,
//     per-kind totals survive overwrite),
//   - per-site queue-depth time series (a "site" is one traced egress port),
//   - per-flow transport series (cwnd/ssthresh and RTT samples, plus
//     retransmit/RTO totals), keyed deterministically by FlowKey, and
//   - each site's PortCounts, a copy of the port's own counters handed in
//     by SetSiteCounts (the taps record events and never count packets).
//
// Ports attach through PortTap objects (PacketTracer implementations with
// stable addresses handed out by the recorder); transport stacks attach
// through the TransportTracer interface the recorder itself implements;
// the scenario engine reports through OnScenarioAction. Everything is
// single-threaded per simulation, matching the simulator's threading model
// — parallel sweeps give each job its own recorder.
#ifndef ECNSHARP_TRACE_TRACE_RECORDER_H_
#define ECNSHARP_TRACE_TRACE_RECORDER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "net/egress_port.h"
#include "net/queue_disc.h"
#include "trace/trace_config.h"
#include "trace/trace_event.h"
#include "trace/transport_tracer.h"

namespace ecnsharp {

class TraceRecorder : public TransportTracer {
 public:
  struct DepthSample {
    Time at;
    std::uint32_t packets = 0;
    std::uint64_t bytes = 0;
  };

  struct CwndSample {
    Time at;
    double cwnd_bytes = 0.0;
    double ssthresh_bytes = 0.0;
  };

  struct RttSamplePoint {
    Time at;
    Time sample;
  };

  struct FlowSeries {
    std::vector<CwndSample> cwnd;
    std::vector<RttSamplePoint> rtt;
    std::uint64_t retransmits = 0;
    std::uint64_t rtos = 0;
  };

  using FlowSeriesMap = std::map<FlowKey, FlowSeries, FlowKeyLess>;

  explicit TraceRecorder(TraceConfig config);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  const TraceConfig& config() const { return config_; }

  // --- Sites ------------------------------------------------------------
  // Registers a traced port under a stable label; returns its site id.
  // Site ids are 16-bit and kNoTraceSite is reserved, so registering more
  // than kNoTraceSite sites exits 2 (FatalConfigError).
  std::uint16_t RegisterSite(std::string label);
  // PacketTracer to install on the port for `site`. The pointer stays valid
  // for the recorder's lifetime.
  PacketTracer* PortTap(std::uint16_t site);
  std::size_t site_count() const { return sites_.size(); }
  const std::string& site_label(std::uint16_t site) const;
  // The site's port counts as last handed in (zero until then).
  void SetSiteCounts(std::uint16_t site, const PortCounts& counts);
  const PortCounts& site_counts(std::uint16_t site) const;
  const std::vector<DepthSample>& depth_series(std::uint16_t site) const;

  // --- Scenario ---------------------------------------------------------
  void OnScenarioAction(Time at, std::uint8_t kind, int target);

  // --- TransportTracer --------------------------------------------------
  void OnCwnd(const FlowKey& flow, Time at, double cwnd_bytes,
              double ssthresh_bytes) override;
  void OnRttSample(const FlowKey& flow, Time at, Time sample) override;
  void OnRetransmit(const FlowKey& flow, Time at, std::uint64_t seq) override;
  void OnRto(const FlowKey& flow, Time at, std::uint32_t consecutive) override;

  const FlowSeriesMap& flows() const { return flows_; }

  // --- Ring access ------------------------------------------------------
  // Events currently retained, oldest first.
  std::vector<TraceEvent> Events() const;
  // Total events ever recorded, including overwritten ones.
  std::uint64_t total_events() const { return total_events_; }
  // Events lost to ring overwrite.
  std::uint64_t overwritten() const {
    return total_events_ > ring_.size() ? total_events_ - ring_.size() : 0;
  }
  std::uint64_t kind_count(TraceEventKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }
  // Series points discarded because a series hit max_series_points.
  std::uint64_t suppressed_points() const { return suppressed_points_; }

 private:
  // Per-port PacketTracer bound to one site id. Lives in a deque inside the
  // recorder so its address never moves.
  class Tap : public PacketTracer {
   public:
    Tap(TraceRecorder* recorder, std::uint16_t site)
        : recorder_(recorder), site_(site) {}
    void OnTransmit(const Packet& pkt, Time at) override;
    void OnDrop(const Packet& pkt, Time at, DropReason reason) override;
    void OnMark(const Packet& pkt, Time at) override;
    void OnEnqueue(const Packet& pkt, Time at,
                   const QueueSnapshot& after) override;
    void OnDequeue(const Packet& pkt, Time at, const QueueSnapshot& after,
                   Time sojourn) override;
    void OnPurge(const Packet& pkt, Time at,
                 const QueueSnapshot& after) override;

   private:
    TraceRecorder* recorder_;
    std::uint16_t site_;
  };

  struct Site {
    std::string label;
    PortCounts counts;
    std::vector<DepthSample> depth;
  };

  void Record(const TraceEvent& event);
  void RecordDepth(std::uint16_t site, Time at, const QueueSnapshot& after);
  FlowSeries& SeriesFor(const FlowKey& flow) { return flows_[flow]; }

  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t kind_counts_[kTraceEventKinds] = {};
  std::uint64_t suppressed_points_ = 0;
  std::vector<Site> sites_;
  std::deque<Tap> taps_;
  FlowSeriesMap flows_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRACE_TRACE_RECORDER_H_

#include "trace/trace_recorder.h"

#include <string>

#include "sim/logging.h"

namespace ecnsharp {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kEnqueue:
      return "enqueue";
    case TraceEventKind::kDequeue:
      return "dequeue";
    case TraceEventKind::kTransmit:
      return "transmit";
    case TraceEventKind::kMark:
      return "mark";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kCwnd:
      return "cwnd";
    case TraceEventKind::kRttSample:
      return "rtt_sample";
    case TraceEventKind::kRetransmit:
      return "retransmit";
    case TraceEventKind::kRto:
      return "rto";
    case TraceEventKind::kScenario:
      return "scenario";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  ring_.reserve(config_.ring_capacity);
}

TraceRecorder::~TraceRecorder() = default;

std::uint16_t TraceRecorder::RegisterSite(std::string label) {
  if (sites_.size() >= kNoTraceSite) {
    FatalConfigError("trace: cannot register port '" + label + "': " +
                     std::to_string(sites_.size()) +
                     " ports are already traced, the most a 16-bit site id "
                     "can name");
  }
  const std::uint16_t site = static_cast<std::uint16_t>(sites_.size());
  sites_.push_back(Site{std::move(label), PortCounts{}, {}});
  taps_.emplace_back(this, site);
  return site;
}

PacketTracer* TraceRecorder::PortTap(std::uint16_t site) {
  return &taps_.at(site);
}

const std::string& TraceRecorder::site_label(std::uint16_t site) const {
  return sites_.at(site).label;
}

void TraceRecorder::SetSiteCounts(std::uint16_t site,
                                  const PortCounts& counts) {
  sites_.at(site).counts = counts;
}

const PortCounts& TraceRecorder::site_counts(std::uint16_t site) const {
  return sites_.at(site).counts;
}

const std::vector<TraceRecorder::DepthSample>& TraceRecorder::depth_series(
    std::uint16_t site) const {
  return sites_.at(site).depth;
}

void TraceRecorder::Record(const TraceEvent& event) {
  ++kind_counts_[static_cast<std::size_t>(event.kind)];
  ++total_events_;
  if (ring_.size() < config_.ring_capacity) {
    ring_.push_back(event);
    return;
  }
  ring_[ring_next_] = event;
  ring_next_ = (ring_next_ + 1) % ring_.size();
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

void TraceRecorder::RecordDepth(std::uint16_t site, Time at,
                                const QueueSnapshot& after) {
  if (!config_.queue_series) return;
  std::vector<DepthSample>& series = sites_[site].depth;
  if (series.size() >= config_.max_series_points) {
    ++suppressed_points_;
    return;
  }
  series.push_back(DepthSample{at, after.packets, after.bytes});
}

void TraceRecorder::OnScenarioAction(Time at, std::uint8_t kind, int target) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kScenario;
  event.a = kind;
  event.b = static_cast<std::uint64_t>(static_cast<std::int64_t>(target));
  Record(event);
}

void TraceRecorder::OnCwnd(const FlowKey& flow, Time at, double cwnd_bytes,
                           double ssthresh_bytes) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kCwnd;
  event.flow = flow;
  event.a = static_cast<std::uint64_t>(cwnd_bytes);
  event.b = static_cast<std::uint64_t>(ssthresh_bytes);
  Record(event);
  if (!config_.flow_series) return;
  FlowSeries& series = SeriesFor(flow);
  if (series.cwnd.size() >= config_.max_series_points) {
    ++suppressed_points_;
    return;
  }
  series.cwnd.push_back(CwndSample{at, cwnd_bytes, ssthresh_bytes});
}

void TraceRecorder::OnRttSample(const FlowKey& flow, Time at, Time sample) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kRttSample;
  event.flow = flow;
  event.a = static_cast<std::uint64_t>(sample.ns());
  Record(event);
  if (!config_.flow_series) return;
  FlowSeries& series = SeriesFor(flow);
  if (series.rtt.size() >= config_.max_series_points) {
    ++suppressed_points_;
    return;
  }
  series.rtt.push_back(RttSamplePoint{at, sample});
}

void TraceRecorder::OnRetransmit(const FlowKey& flow, Time at,
                                 std::uint64_t seq) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kRetransmit;
  event.flow = flow;
  event.a = seq;
  Record(event);
  if (config_.flow_series) ++SeriesFor(flow).retransmits;
}

void TraceRecorder::OnRto(const FlowKey& flow, Time at,
                          std::uint32_t consecutive) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kRto;
  event.flow = flow;
  event.a = consecutive;
  Record(event);
  if (config_.flow_series) ++SeriesFor(flow).rtos;
}

void TraceRecorder::Tap::OnTransmit(const Packet& pkt, Time at) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kTransmit;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = pkt.size_bytes;
  recorder_->Record(event);
}

void TraceRecorder::Tap::OnDrop(const Packet& pkt, Time at,
                                DropReason reason) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kDrop;
  event.reason = reason;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = pkt.size_bytes;
  recorder_->Record(event);
}

void TraceRecorder::Tap::OnMark(const Packet& pkt, Time at) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kMark;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = pkt.size_bytes;
  recorder_->Record(event);
}

void TraceRecorder::Tap::OnEnqueue(const Packet& pkt, Time at,
                                   const QueueSnapshot& after) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kEnqueue;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = after.packets;
  recorder_->Record(event);
  recorder_->RecordDepth(site_, at, after);
}

void TraceRecorder::Tap::OnDequeue(const Packet& pkt, Time at,
                                   const QueueSnapshot& after, Time sojourn) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kDequeue;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = static_cast<std::uint64_t>(sojourn.ns());
  recorder_->Record(event);
  recorder_->RecordDepth(site_, at, after);
}

void TraceRecorder::Tap::OnPurge(const Packet& pkt, Time at,
                                 const QueueSnapshot& after) {
  TraceEvent event;
  event.at = at;
  event.kind = TraceEventKind::kDrop;
  event.reason = DropReason::kPurged;
  event.site = site_;
  event.flow = pkt.flow;
  event.a = pkt.seq;
  event.b = pkt.size_bytes;
  recorder_->Record(event);
  recorder_->RecordDepth(site_, at, after);
}

}  // namespace ecnsharp

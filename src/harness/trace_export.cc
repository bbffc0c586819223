#include "harness/trace_export.h"

#include <cstdio>

#include "dynamics/scenario.h"
#include "harness/config_json.h"

namespace ecnsharp {

namespace {

Json FlowToJson(const FlowKey& flow) {
  return Json::Object()
      .Set("src", Json::UInt(flow.src))
      .Set("src_port", Json::UInt(flow.src_port))
      .Set("dst", Json::UInt(flow.dst))
      .Set("dst_port", Json::UInt(flow.dst_port));
}

bool IsFlowEvent(TraceEventKind kind) {
  return kind != TraceEventKind::kScenario;
}

Json EventToJson(const TraceEvent& event) {
  Json out = Json::Object()
                 .Set("at_ns", Json::Int(event.at.ns()))
                 .Set("kind", Json::Str(TraceEventKindName(event.kind)));
  if (event.site != kNoTraceSite) {
    out.Set("site", Json::UInt(event.site));
  }
  if (IsFlowEvent(event.kind)) {
    out.Set("flow", FlowToJson(event.flow));
  }
  switch (event.kind) {
    case TraceEventKind::kEnqueue:
      out.Set("seq", Json::UInt(event.a));
      out.Set("depth_pkts", Json::UInt(event.b));
      break;
    case TraceEventKind::kDequeue:
      out.Set("seq", Json::UInt(event.a));
      out.Set("sojourn_ns", Json::UInt(event.b));
      break;
    case TraceEventKind::kTransmit:
    case TraceEventKind::kMark:
      out.Set("seq", Json::UInt(event.a));
      out.Set("bytes", Json::UInt(event.b));
      break;
    case TraceEventKind::kDrop:
      out.Set("reason", Json::Str(DropReasonName(event.reason)));
      out.Set("seq", Json::UInt(event.a));
      out.Set("bytes", Json::UInt(event.b));
      break;
    case TraceEventKind::kCwnd:
      out.Set("cwnd_bytes", Json::UInt(event.a));
      out.Set("ssthresh_bytes", Json::UInt(event.b));
      break;
    case TraceEventKind::kRttSample:
      out.Set("sample_ns", Json::UInt(event.a));
      break;
    case TraceEventKind::kRetransmit:
      out.Set("seq", Json::UInt(event.a));
      break;
    case TraceEventKind::kRto:
      out.Set("consecutive", Json::UInt(event.a));
      break;
    case TraceEventKind::kScenario:
      out.Set("action", Json::Str(ScenarioActionKindName(
                            static_cast<ScenarioActionKind>(event.a))));
      out.Set("target", Json::Int(static_cast<std::int64_t>(event.b)));
      break;
  }
  return out;
}

Json SiteCountsToJson(const PortCounts& counts) {
  Json drops = Json::Object();
  for (std::size_t r = 0; r < kDropReasons; ++r) {
    const auto reason = static_cast<DropReason>(r);
    drops.Set(DropReasonName(reason), Json::UInt(counts.drops(reason)));
  }
  return Json::Object()
      .Set("enqueued", Json::UInt(counts.disc.enqueued))
      .Set("dequeued", Json::UInt(counts.disc.dequeued))
      .Set("transmitted", Json::UInt(counts.port.tx_packets))
      .Set("marks", Json::UInt(counts.disc.ce_marked))
      .Set("purged", Json::UInt(counts.disc.purged))
      .Set("dropped_total", Json::UInt(counts.dropped_total()))
      .Set("drops", std::move(drops));
}

}  // namespace

Json TraceToJson(const TraceRecorder& trace) {
  const TraceConfig& config = trace.config();
  Json doc = Json::Object();
  doc.Set("schema_version", Json::Int(1));
  doc.Set("config", ToJson(config));

  Json kinds = Json::Object();
  for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
    kinds.Set(TraceEventKindName(static_cast<TraceEventKind>(k)),
              Json::UInt(trace.kind_count(static_cast<TraceEventKind>(k))));
  }
  doc.Set("totals",
          Json::Object()
              .Set("events", Json::UInt(trace.total_events()))
              .Set("overwritten", Json::UInt(trace.overwritten()))
              .Set("suppressed_points", Json::UInt(trace.suppressed_points()))
              .Set("kinds", std::move(kinds)));

  Json sites = Json::Array();
  for (std::size_t s = 0; s < trace.site_count(); ++s) {
    const auto site = static_cast<std::uint16_t>(s);
    Json entry = Json::Object()
                     .Set("site", Json::UInt(site))
                     .Set("label", Json::Str(trace.site_label(site)))
                     .Set("counters",
                          SiteCountsToJson(trace.site_counts(site)));
    if (config.queue_series) {
      Json depth = Json::Array();
      for (const TraceRecorder::DepthSample& sample :
           trace.depth_series(site)) {
        depth.Push(Json::Array()
                       .Push(Json::Int(sample.at.ns()))
                       .Push(Json::UInt(sample.packets))
                       .Push(Json::UInt(sample.bytes)));
      }
      entry.Set("depth", std::move(depth));
    }
    sites.Push(std::move(entry));
  }
  doc.Set("sites", std::move(sites));

  if (config.flow_series) {
    Json flows = Json::Array();
    for (const auto& [key, series] : trace.flows()) {
      Json cwnd = Json::Array();
      for (const TraceRecorder::CwndSample& sample : series.cwnd) {
        cwnd.Push(Json::Array()
                      .Push(Json::Int(sample.at.ns()))
                      .Push(Json::Num(sample.cwnd_bytes))
                      .Push(Json::Num(sample.ssthresh_bytes)));
      }
      Json rtt = Json::Array();
      for (const TraceRecorder::RttSamplePoint& sample : series.rtt) {
        rtt.Push(Json::Array()
                     .Push(Json::Int(sample.at.ns()))
                     .Push(Json::Int(sample.sample.ns())));
      }
      flows.Push(Json::Object()
                     .Set("flow", FlowToJson(key))
                     .Set("retransmits", Json::UInt(series.retransmits))
                     .Set("rtos", Json::UInt(series.rtos))
                     .Set("cwnd", std::move(cwnd))
                     .Set("rtt", std::move(rtt)));
    }
    doc.Set("flows", std::move(flows));
  }

  Json events = Json::Array();
  for (const TraceEvent& event : trace.Events()) {
    events.Push(EventToJson(event));
  }
  doc.Set("events", std::move(events));
  return doc;
}

std::string TraceToCsv(const TraceRecorder& trace) {
  std::string out = "at_ns,kind,site,reason,src,src_port,dst,dst_port,a,b\n";
  char buf[192];
  for (const TraceEvent& event : trace.Events()) {
    std::string site;
    if (event.site != kNoTraceSite) site = std::to_string(event.site);
    const char* reason =
        event.kind == TraceEventKind::kDrop ? DropReasonName(event.reason) : "";
    std::snprintf(buf, sizeof buf,
                  "%lld,%s,%s,%s,%u,%u,%u,%u,%llu,%llu\n",
                  static_cast<long long>(event.at.ns()),
                  TraceEventKindName(event.kind), site.c_str(), reason,
                  event.flow.src, event.flow.src_port, event.flow.dst,
                  event.flow.dst_port,
                  static_cast<unsigned long long>(event.a),
                  static_cast<unsigned long long>(event.b));
    out += buf;
  }
  return out;
}

}  // namespace ecnsharp

#include "harness/sketch_export.h"

#include <cstdint>

#include "sketch/estimator.h"

namespace ecnsharp {

Json SketchToJson(const SketchTelemetry& telemetry, Time now) {
  const SketchConfig& config = telemetry.config();

  Json config_json = Json::Object();
  config_json.Set("memory_kb", Json::UInt(config.memory_kb));
  config_json.Set("depth", Json::UInt(config.depth));
  config_json.Set("epoch_us", Json::Num(config.epoch.ToMicroseconds()));
  config_json.Set("window_epochs", Json::UInt(config.window_epochs));
  config_json.Set("decay", Json::Num(config.decay));
  config_json.Set("queue_alpha", Json::Num(config.queue_alpha));
  config_json.Set("heavy_hitters", Json::UInt(config.heavy_hitters));
  config_json.Set("track_exact", Json::Bool(config.track_exact));

  Json totals = Json::Object();
  totals.Set("packets_observed", Json::UInt(telemetry.packets_observed()));
  totals.Set("flow_sketch_bytes",
             Json::UInt(telemetry.FlowSketchMemoryBytes()));
  totals.Set("count_min_width", Json::UInt(telemetry.count_min().width()));
  totals.Set("count_min_total", Json::UInt(telemetry.count_min().total_count()));

  Json sites = Json::Array();
  for (std::size_t s = 0; s < telemetry.site_count(); ++s) {
    const std::uint16_t site = static_cast<std::uint16_t>(s);
    const PortCounts& counts = telemetry.site_counts(site);
    const QueueOccupancyEwma& ewma = telemetry.queue_ewma(site);
    Json row = Json::Object();
    row.Set("label", Json::Str(telemetry.site_label(site)));
    row.Set("enqueued", Json::UInt(counts.disc.enqueued));
    row.Set("enqueued_bytes", Json::UInt(telemetry.site_enqueued_bytes(site)));
    row.Set("dequeued", Json::UInt(counts.disc.dequeued));
    row.Set("transmitted", Json::UInt(counts.port.tx_packets));
    row.Set("marks", Json::UInt(counts.disc.ce_marked));
    row.Set("drops", Json::UInt(counts.dropped_total()));
    row.Set("ewma_packets", Json::Num(ewma.ewma_packets()));
    row.Set("ewma_bytes", Json::Num(ewma.ewma_bytes()));
    row.Set("peak_packets", Json::UInt(ewma.peak_packets()));
    row.Set("queue_samples", Json::UInt(ewma.samples()));
    sites.Push(std::move(row));
  }

  const SketchRttEstimate estimate = EstimateFromSketch(telemetry, now);
  Json rtt = Json::Object();
  rtt.Set("valid", Json::Bool(estimate.valid));
  rtt.Set("samples", Json::UInt(estimate.samples));
  rtt.Set("offered", Json::UInt(estimate.offered));
  rtt.Set("admitted", Json::UInt(telemetry.rtt_samples_admitted()));
  rtt.Set("mean_us", Json::Num(estimate.mean_us));
  rtt.Set("p50_us", Json::Num(estimate.p50_us));
  rtt.Set("p90_us", Json::Num(estimate.p90_us));
  rtt.Set("p99_us", Json::Num(estimate.p99_us));

  Json heavy = Json::Array();
  for (const SketchTelemetry::HeavyHitter& hh : telemetry.HeavyHitters()) {
    Json row = Json::Object();
    row.Set("src", Json::UInt(hh.flow.src));
    row.Set("src_port", Json::UInt(hh.flow.src_port));
    row.Set("dst", Json::UInt(hh.flow.dst));
    row.Set("dst_port", Json::UInt(hh.flow.dst_port));
    row.Set("estimated_bytes", Json::UInt(hh.estimated_bytes));
    row.Set("rate_bps",
            Json::Num(telemetry.EstimateRateBps(hh.flow, now)));
    heavy.Push(std::move(row));
  }

  Json doc = Json::Object();
  doc.Set("config", std::move(config_json));
  doc.Set("totals", std::move(totals));
  doc.Set("sites", std::move(sites));
  doc.Set("rtt_estimate", std::move(rtt));
  doc.Set("heavy_hitters", std::move(heavy));
  doc.Set("heavy_rate_bps", Json::Num(estimate.heavy_rate_bps));
  return doc;
}

}  // namespace ecnsharp

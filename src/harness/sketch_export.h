// Serialization of a SketchTelemetry snapshot into the harness JSON model.
//
// Deterministic like the trace export: sites appear in registration order,
// heavy hitters in estimated-bytes order (key-hash tie-break), and numbers
// render with shortest-round-trip formatting — so the export of a fixed-seed
// run is byte-identical across runs and --jobs values. `now` is the query
// time for the windowed views (rates, RTT quantiles), normally the
// simulation end time.
#ifndef ECNSHARP_HARNESS_SKETCH_EXPORT_H_
#define ECNSHARP_HARNESS_SKETCH_EXPORT_H_

#include "harness/json.h"
#include "sim/time.h"
#include "sketch/telemetry.h"

namespace ecnsharp {

// Full telemetry document: config + memory, per-site counters (the site's
// PortCounts plus the sketch's enqueued bytes) and queue EWMAs, the RTT
// estimate (quantiles + admission counters), and the heavy-hitter table
// with rate estimates.
Json SketchToJson(const SketchTelemetry& telemetry, Time now);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_SKETCH_EXPORT_H_

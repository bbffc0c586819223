// Serialization of a TraceRecorder into the harness JSON model and CSV.
//
// Both renderings are deterministic: Json preserves insertion order and
// prints shortest-round-trip numbers, sites appear in registration order,
// flows in FlowKeyLess order, and the event ring oldest-first — so a trace
// of a fixed-seed run is byte-identical across runs and --jobs values.
// Writing files is the caller's job (the CLI and benches go through
// runner::WriteTextFile); this layer only builds strings.
#ifndef ECNSHARP_HARNESS_TRACE_EXPORT_H_
#define ECNSHARP_HARNESS_TRACE_EXPORT_H_

#include <string>

#include "harness/json.h"
#include "trace/trace_recorder.h"

namespace ecnsharp {

// Full trace document: config, totals, per-site counters + depth series,
// per-flow transport series, and the retained event ring.
Json TraceToJson(const TraceRecorder& trace);

// Flat event table: one row per retained ring event with the header
//   at_ns,kind,site,reason,src,src_port,dst,dst_port,a,b
// (site and reason empty when not applicable).
std::string TraceToCsv(const TraceRecorder& trace);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_TRACE_EXPORT_H_

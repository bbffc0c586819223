// Configuration for the flight-recorder tracing subsystem. A --trace spec
// reads into it through TraceConfigFromSpec (harness/config_json.h).
#ifndef ECNSHARP_TRACE_TRACE_CONFIG_H_
#define ECNSHARP_TRACE_TRACE_CONFIG_H_

#include <cstddef>

namespace ecnsharp {

struct TraceConfig {
  // Master switch. When false no recorder is created and the per-port /
  // per-flow hooks stay null pointers, so the fast path pays only an
  // inlined null check.
  bool enabled = false;
  // Flight-recorder ring capacity in events. When full the oldest events
  // are overwritten; aggregate counters are never lost.
  std::size_t ring_capacity = 65536;
  // Record per-port queue-depth time series (one sample per enqueue /
  // dequeue / purge).
  bool queue_series = true;
  // Record per-flow transport series (cwnd/ssthresh, RTT samples).
  bool flow_series = true;
  // Cap per individual series; further points are counted as suppressed
  // rather than stored.
  std::size_t max_series_points = 65536;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_TRACE_TRACE_CONFIG_H_

// Configuration for the sketch-based telemetry subsystem.
//
// One SketchTelemetry instance models the bounded-memory telemetry block of
// a single switch dataplane: everything flow-keyed (the count-min totals,
// the windowed rate ring, and the RTT min-filter/histogram ring) is sized
// from `memory_kb` at construction and never grows, no matter how many
// flows the run offers. Per-port queue EWMAs are O(ports) scalars on top.
// A --sketch spec reads into it through SketchConfigFromSpec
// (harness/config_json.h), whose key table states each field's range.
#ifndef ECNSHARP_SKETCH_SKETCH_CONFIG_H_
#define ECNSHARP_SKETCH_SKETCH_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace ecnsharp {

struct SketchConfig {
  // Master switch. When false no telemetry is created and the per-port taps
  // stay null, so the packet path pays only the existing tracer null check.
  bool enabled = false;

  // Flow-sketch memory budget in KiB per switch. Split 40/40/20 between the
  // lifetime count-min, the windowed rate ring, and the RTT sketch; the
  // telemetry reports the exact bytes it actually allocated.
  std::size_t memory_kb = 64;

  // Count-min rows (d). Error decays exponentially in d but memory is
  // linear in it; 4 is the standard sweet spot.
  std::size_t depth = 4;

  // Epoch length of the windowed sketches. The rate/RTT window covers
  // `window_epochs` epochs; older state is overwritten in ring order.
  Time epoch = Time::Milliseconds(5);
  std::size_t window_epochs = 8;

  // Per-epoch age weight for the decayed rate merge: epoch age a
  // contributes decay^a of its bytes (WaveSketch-style recency weighting).
  double decay = 0.7;

  // Per-port queue-occupancy EWMA gain.
  double queue_alpha = 0.125;

  // Heavy-hitter candidate slots kept beside the count-min (space-saving
  // style top-K list; 0 disables heavy-hitter tracking).
  std::size_t heavy_hitters = 16;

  // Evaluation mode: also keep exact per-flow ground truth (unbounded
  // memory — bench/sketch_accuracy only, never production paths).
  bool track_exact = false;
};

// Which measurement source feeds the scenario engine's ECN# re-estimation
// actions: the oracle reads every host's true base RTT (testbed-operator
// knowledge), the sketch estimator reads only SketchTelemetry state.
enum class EcnEstimator : std::uint8_t { kOracle, kSketch };

}  // namespace ecnsharp

#endif  // ECNSHARP_SKETCH_SKETCH_CONFIG_H_

// JSON records of experiment configurations, and of their results.
//
// Every config struct has one key table in config_json.cc naming each key
// once, with its member, its unit (us for times, bps for rates, names for
// enums and the two built-in workloads) and its valid range. ToJson and the
// readers both walk these tables, so a JSON record plus the binary version
// is enough to reproduce a data point: ConfigJsonTest checks that every
// config reads back to the same record and, for runnable ones, the same
// result. Feeds the runner's structured exporter (results/<sweep>.json) and
// ecnsharp_cli, which lowers its flags onto a record. Wall-clock quantities
// are deliberately excluded — dumps must be byte-identical across repeat
// runs and across --jobs settings.
#ifndef ECNSHARP_HARNESS_CONFIG_JSON_H_
#define ECNSHARP_HARNESS_CONFIG_JSON_H_

#include <string>

#include "dynamics/scenario.h"
#include "harness/experiment.h"
#include "harness/json.h"

namespace ecnsharp {

// Name of a workload CDF pointer: "websearch", "datamining" or "custom".
const char* WorkloadName(const EmpiricalCdf* workload);

Json ToJson(const SchemeParams& params);
// A config's "sketch" record.
Json ToJson(const SketchConfig& sketch);
// A trace file's "config" object (tracing stays off the config record).
Json ToJson(const TraceConfig& trace);

// Scenario scripts round-trip through JSON: ToJson emits the canonical form
// and the two readers accept it back (plus defaults for omitted fields).
// Script shape: {"seed": 7, "actions": [{"kind": "link_down", "at_us":
// 50000, "target": -1, "drop_queued": true, ...}, ...]}.
Json ToJson(const ScenarioScript& script);
// Returns false (with a message naming the refused key in `*error` when
// non-null) on an unknown key or kind, a wrong JSON type, a missing "kind"
// or "actions", or an out-of-range number.
bool ScenarioScriptFromJson(const Json& json, ScenarioScript* out,
                            std::string* error = nullptr);
// Convenience: Json::Parse + ScenarioScriptFromJson.
bool ParseScenarioScript(const std::string& text, ScenarioScript* out,
                         std::string* error = nullptr);

// Read a --trace or --sketch spec into `*out`, enabled. A spec is "on",
// "default" or "1" (the defaults), "full" for a trace (1 Mi events and
// points), or terms "alias:value" joined by commas. Each alias names one key
// of the struct's table, which states its range: events, points, queue and
// flows; mem, depth, epoch (us), window, decay (percent), hh and exact. A
// value is on, off or a whole number in decimal digits. Returns false, with
// a message naming the refused key in `*error` when non-null, on an empty
// or malformed term, a duplicate or unknown key, or a value the key refuses;
// `*out` is untouched then.
bool TraceConfigFromSpec(const std::string& spec, TraceConfig* out,
                         std::string* error = nullptr);
bool SketchConfigFromSpec(const std::string& spec, SketchConfig* out,
                          std::string* error = nullptr);

// Any experiment's config record. Keys are fixed per family: the shared
// fields in one order around the family's shape keys, and optional keys
// (scenario, cc_mix, buffer_policy, estimator, sketch) only when set. Keys
// added since the first records (the rest of TcpConfig, link delays, host
// buffers, addresses, the dumbbell's long_flows and rtt_profile) follow them
// and appear only off their defaults.
Json ToJson(const ExperimentConfig& config);

// Reads a record back. "topology" picks the family, and every other key
// overrides the family's default config, so a partial record is a set of
// overrides. "incast" names a preset, not a family: its keys (scheme,
// query_flows, query_min_bytes, query_max_bytes, burst_time_us, seed,
// sketch) override IncastDumbbell's, and the config read is that dumbbell,
// with `seed` seeding its scenario too. Returns false, with a message that
// starts with the refused key's path ("buffer_policy.alpha must be > 0 and
// finite, got 0") in `*error` when non-null, on an unknown key, a wrong JSON
// type, an out-of-range value, a "custom" workload (its CDF is not in the
// record) or estimator "sketch" without a sketch record. `*out` is
// untouched then.
bool ExperimentConfigFromJson(const Json& json, ExperimentConfig* out,
                              std::string* error = nullptr);

Json ToJson(const FctSummary& summary);
Json ToJson(const QueueDiscStats& stats);
// Includes the burst view (with its queue trace as time/packets pairs)
// when a burst fired.
Json ToJson(const ExperimentResult& result);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_CONFIG_JSON_H_

// JSON serialization of experiment configurations and results.
//
// Feeds the runner's structured exporter (results/<sweep>.json): every field
// that determines a run's outcome is captured, so a JSON record plus the
// binary version is enough to reproduce a data point. Wall-clock quantities
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
Json ToJson(const TcpConfig& tcp);
Json ToJson(const BufferPolicyConfig& policy);

// Scenario scripts round-trip through JSON: ToJson emits the canonical form
// and the two readers accept it back (plus defaults for omitted fields).
// Script shape: {"seed": 7, "actions": [{"kind": "link_down", "at_us":
// 50000, "target": -1, "drop_queued": true, ...}, ...]}.
Json ToJson(const ScenarioAction& action);
Json ToJson(const ScenarioScript& script);
// Returns false (with a message in `*error` when non-null) on an unknown
// kind, a malformed document shape, or out-of-range numbers.
bool ScenarioScriptFromJson(const Json& json, ScenarioScript* out,
                            std::string* error = nullptr);
// Convenience: Json::Parse + ScenarioScriptFromJson.
bool ParseScenarioScript(const std::string& text, ScenarioScript* out,
                         std::string* error = nullptr);

// Any experiment's config record. Keys are fixed per family: the shared
// fields in one order around the family's shape keys, and optional keys
// (scenario, cc_mix, buffer_policy) only when set.
Json ToJson(const ExperimentConfig& config);

Json ToJson(const FctSummary& summary);
Json ToJson(const QueueDiscStats& stats);
Json ToJson(const ExperimentResult& result);
// Includes the queue trace (time/packets pairs) when present.
Json ToJson(const IncastResult& result);

}  // namespace ecnsharp

#endif  // ECNSHARP_HARNESS_CONFIG_JSON_H_

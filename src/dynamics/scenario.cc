#include "dynamics/scenario.h"

namespace ecnsharp {

const char* ScenarioActionKindName(ScenarioActionKind kind) {
  switch (kind) {
    case ScenarioActionKind::kSetHostDelay:
      return "set_host_delay";
    case ScenarioActionKind::kSetLinkRate:
      return "set_link_rate";
    case ScenarioActionKind::kSetLinkDelay:
      return "set_link_delay";
    case ScenarioActionKind::kLinkDown:
      return "link_down";
    case ScenarioActionKind::kLinkUp:
      return "link_up";
    case ScenarioActionKind::kInjectLoss:
      return "inject_loss";
    case ScenarioActionKind::kIncastBurst:
      return "incast_burst";
    case ScenarioActionKind::kReestimateEcnSharp:
      return "reestimate_ecnsharp";
  }
  return "?";
}

}  // namespace ecnsharp

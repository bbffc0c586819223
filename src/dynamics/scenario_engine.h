// ScenarioEngine: executes a ScenarioScript against a live topology.
//
// The engine is topology-agnostic: it never sees Dumbbell or the harness.
// The experiment wires it up with ScenarioHooks — small callbacks that
// resolve a port id to an EgressPort, set a host's extra delay, launch an
// incast burst, or re-derive ECN# thresholds. Install() expands every
// action's occurrences, draws all randomness up front (see the determinism
// contract in scenario.h), and schedules plain simulator events; after that
// the engine is passive until the simulation reaches the scheduled times.
//
// The engine owns the per-port LinkFaultInjectors it creates for
// kInjectLoss actions and reports their aggregate drop/corruption counts.
#ifndef ECNSHARP_DYNAMICS_SCENARIO_ENGINE_H_
#define ECNSHARP_DYNAMICS_SCENARIO_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dynamics/scenario.h"
#include "net/egress_port.h"
#include "net/link_fault.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

struct ScenarioHooks {
  // Resolves an action's `target` to a port; return null to ignore the
  // action (unknown id). Called at fire time, after topology construction.
  std::function<EgressPort*(int target)> port;
  // Sets sender `index`'s netem-style extra egress delay.
  std::function<void(int index, Time delay)> set_host_delay;
  // Fires one synchronized flow per entry of `sizes` (bytes, drawn at
  // Install), in order.
  std::function<void(const std::vector<std::uint64_t>& sizes)> incast;
  // Re-derives ECN# thresholds from the current RTT distribution.
  std::function<void()> reestimate_ecnsharp;
  // Observer invoked as each occurrence fires, before its effect is applied
  // (cause-before-effect ordering for tracing); `at` is the fire time.
  std::function<void(const ScenarioAction& action, Time at)> on_action;
};

class ScenarioEngine {
 public:
  ScenarioEngine(Simulator& sim, ScenarioScript script, ScenarioHooks hooks)
      : sim_(sim), script_(std::move(script)), hooks_(std::move(hooks)) {}

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  // Expands occurrences, draws all randomness, schedules the events. Call
  // once, after the topology exists and before the run starts. The engine
  // must outlive the simulation.
  void Install();

  // Total occurrences Install() put on the event queue, and how many have
  // actually fired so far. Experiments run until the two match (or their
  // safety cap trips), so trailing actions are not silently skipped.
  std::uint64_t actions_scheduled() const { return actions_scheduled_; }
  std::uint64_t actions_fired() const { return actions_fired_; }
  std::uint64_t bursts_fired() const { return bursts_fired_; }

  // Aggregate injected-fault counts across all ports.
  std::uint64_t injected_drops() const;
  std::uint64_t injected_corruptions() const;

  const ScenarioScript& script() const { return script_; }

 private:
  void Fire(const ScenarioAction& action, Time drawn_delay,
            std::uint64_t injector_seed,
            const std::vector<std::uint64_t>& burst_sizes);

  Simulator& sim_;
  ScenarioScript script_;
  ScenarioHooks hooks_;
  // One injector per target port id, created lazily at fire time with the
  // seed drawn at install time.
  std::map<int, std::unique_ptr<LinkFaultInjector>> injectors_;
  std::uint64_t actions_scheduled_ = 0;
  std::uint64_t actions_fired_ = 0;
  std::uint64_t bursts_fired_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_DYNAMICS_SCENARIO_ENGINE_H_

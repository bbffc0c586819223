#include "dynamics/scenario_engine.h"

#include "sim/data_rate.h"
#include "sim/random.h"

namespace ecnsharp {

void ScenarioEngine::Install() {
  // One master stream, consumed in script order. Each occurrence draws its
  // jitter, its randomized delay (when a range is given), and — for
  // kInjectLoss — an injector seed or — for a kIncastBurst with a size range
  // — one size per flow, whether or not the hook ends up using them; fixed
  // consumption is what keeps the schedule independent of topology lookups.
  Rng rng(script_.seed);
  for (const ScenarioAction& action : script_.actions) {
    const std::uint32_t repeat = action.repeat == 0 ? 1 : action.repeat;
    for (std::uint32_t k = 0; k < repeat; ++k) {
      Time when = action.at + action.period * k;
      if (action.jitter > Time::Zero()) {
        when += Time::FromMicroseconds(
            rng.Uniform(0.0, action.jitter.ToMicroseconds()));
      }
      Time drawn_delay = Time::FromMicroseconds(action.delay_us);
      if (action.delay_hi_us > action.delay_us) {
        drawn_delay = Time::FromMicroseconds(
            rng.Uniform(action.delay_us, action.delay_hi_us));
      }
      std::uint64_t injector_seed = 0;
      if (action.kind == ScenarioActionKind::kInjectLoss) {
        injector_seed = rng.engine()();
      }
      std::vector<std::uint64_t> burst_sizes;
      if (action.kind == ScenarioActionKind::kIncastBurst) {
        burst_sizes.assign(action.flows, action.bytes);
        if (action.bytes_hi > action.bytes) {
          for (std::uint64_t& size : burst_sizes) {
            size += rng.UniformInt(action.bytes_hi - action.bytes + 1);
          }
        }
      }
      ++actions_scheduled_;
      sim_.ScheduleAt(when, [this, action, drawn_delay, injector_seed,
                             burst_sizes = std::move(burst_sizes)] {
        Fire(action, drawn_delay, injector_seed, burst_sizes);
      });
    }
  }
}

void ScenarioEngine::Fire(const ScenarioAction& action, Time drawn_delay,
                          std::uint64_t injector_seed,
                          const std::vector<std::uint64_t>& burst_sizes) {
  ++actions_fired_;
  if (hooks_.on_action) hooks_.on_action(action, sim_.Now());
  switch (action.kind) {
    case ScenarioActionKind::kSetHostDelay:
      if (hooks_.set_host_delay) {
        hooks_.set_host_delay(action.target, drawn_delay);
      }
      return;
    case ScenarioActionKind::kSetLinkRate:
      if (EgressPort* port = hooks_.port ? hooks_.port(action.target)
                                         : nullptr) {
        port->SetRate(DataRate::GigabitsPerSecond(action.gbps));
      }
      return;
    case ScenarioActionKind::kSetLinkDelay:
      if (EgressPort* port = hooks_.port ? hooks_.port(action.target)
                                         : nullptr) {
        port->SetPropagationDelay(drawn_delay);
      }
      return;
    case ScenarioActionKind::kLinkDown:
      if (EgressPort* port = hooks_.port ? hooks_.port(action.target)
                                         : nullptr) {
        port->LinkDown(action.drop_queued);
      }
      return;
    case ScenarioActionKind::kLinkUp:
      if (EgressPort* port = hooks_.port ? hooks_.port(action.target)
                                         : nullptr) {
        port->LinkUp();
      }
      return;
    case ScenarioActionKind::kInjectLoss:
      if (EgressPort* port = hooks_.port ? hooks_.port(action.target)
                                         : nullptr) {
        auto& injector = injectors_[action.target];
        if (injector == nullptr) {
          injector = std::make_unique<LinkFaultInjector>(injector_seed);
        }
        injector->SetRates(action.drop_prob, action.corrupt_prob);
        port->SetFaultInjector(injector.get());
      }
      return;
    case ScenarioActionKind::kIncastBurst:
      if (hooks_.incast) {
        ++bursts_fired_;
        hooks_.incast(burst_sizes);
      }
      return;
    case ScenarioActionKind::kReestimateEcnSharp:
      if (hooks_.reestimate_ecnsharp) hooks_.reestimate_ecnsharp();
      return;
  }
}

std::uint64_t ScenarioEngine::injected_drops() const {
  std::uint64_t total = 0;
  for (const auto& [target, injector] : injectors_) total += injector->drops();
  return total;
}

std::uint64_t ScenarioEngine::injected_corruptions() const {
  std::uint64_t total = 0;
  for (const auto& [target, injector] : injectors_) {
    total += injector->corruptions();
  }
  return total;
}

}  // namespace ecnsharp

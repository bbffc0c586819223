// Scenario scripts: declarative, seeded descriptions of mid-run network
// dynamics.
//
// The paper derives ECN#'s thresholds from a *measured* RTT distribution
// (§3.4) and evaluates on testbeds whose distribution is fixed for the whole
// run. Real datacenters are not so polite: links flap, SLBs are deployed and
// drained, rate limiters change, incasts arrive in bursts. A ScenarioScript
// captures such a timeline as data — a list of timed actions, optionally
// repeating with seeded jitter — so the same churn pattern can be replayed
// bit-identically under every scheme and on every sweep worker.
//
// Determinism contract: every random quantity (repeat jitter, randomized
// delay draws, burst flow sizes, per-port fault-injector seeds) is drawn at
// Install time, in script order, from one Rng seeded with
// ScenarioScript::seed. Per-packet loss decisions then come from forked,
// per-port streams. No draw depends on simulation state, so a scenario adds
// exactly the same event sequence no matter which worker thread runs the
// job.
#ifndef ECNSHARP_DYNAMICS_SCENARIO_H_
#define ECNSHARP_DYNAMICS_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace ecnsharp {

enum class ScenarioActionKind : std::uint8_t {
  // Changes one sender's netem-style extra egress delay (time-varying base
  // RTT). `target` = sender index; delay drawn from [delay_us, delay_hi_us].
  kSetHostDelay,
  // Changes a link's rate to `gbps`. `target` = port id (see ScenarioHooks).
  kSetLinkRate,
  // Changes a link's propagation delay, drawn from [delay_us, delay_hi_us].
  kSetLinkDelay,
  // Takes a link down; `drop_queued` purges its backlog (else it drains on
  // the matching kLinkUp).
  kLinkDown,
  kLinkUp,
  // Installs seeded random loss/corruption on a port's transmitter.
  kInjectLoss,
  // Fires `flows` synchronized flows at the incast target, each of `bytes`
  // or, with a range, drawn from [bytes, bytes_hi].
  kIncastBurst,
  // Re-derives ECN#'s thresholds from the current RTT distribution — the
  // re-estimation step an operator would run after a known shift.
  kReestimateEcnSharp,
};

// Stable wire names ("set_host_delay", "link_down", ...) for JSON scripts.
const char* ScenarioActionKindName(ScenarioActionKind kind);

struct ScenarioAction {
  ScenarioActionKind kind = ScenarioActionKind::kSetHostDelay;
  // When the (first) occurrence fires.
  Time at = Time::Zero();
  // Port id or sender index, per kind. Port ids are topology-defined; the
  // dumbbell maps -1 to the bottleneck and 0..senders-1 to sender NICs.
  int target = -1;

  // kSetHostDelay / kSetLinkDelay: the delay, drawn uniformly from
  // [delay_us, delay_hi_us] per occurrence. delay_hi_us <= delay_us means
  // the fixed value delay_us (no draw is consumed).
  double delay_us = 0.0;
  double delay_hi_us = 0.0;

  // kSetLinkRate.
  double gbps = 0.0;

  // kInjectLoss.
  double drop_prob = 0.0;
  double corrupt_prob = 0.0;

  // kIncastBurst: each flow's size is drawn uniformly from [bytes,
  // bytes_hi] per occurrence, in flow order. bytes_hi <= bytes means the
  // fixed size `bytes` (no draw is consumed).
  std::uint32_t flows = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bytes_hi = 0;

  // kLinkDown.
  bool drop_queued = false;

  // Occurrences: the action fires `repeat` times, `period` apart, each
  // occurrence shifted by a seeded jitter drawn uniformly from [0, jitter].
  std::uint32_t repeat = 1;
  Time period = Time::Zero();
  Time jitter = Time::Zero();
};

struct ScenarioScript {
  std::uint64_t seed = 1;
  std::vector<ScenarioAction> actions;

  bool empty() const { return actions.empty(); }
};

}  // namespace ecnsharp

#endif  // ECNSHARP_DYNAMICS_SCENARIO_H_

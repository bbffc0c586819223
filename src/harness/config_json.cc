#include "harness/config_json.h"

#include <cstdint>

#include "harness/schemes.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp {

namespace {

Json TimeUs(Time t) { return Json::Num(t.ToMicroseconds()); }

const char* EcnModeName(EcnMode mode) {
  switch (mode) {
    case EcnMode::kDctcp:
      return "dctcp";
    case EcnMode::kClassic:
      return "classic";
    case EcnMode::kNone:
      return "none";
  }
  return "?";
}

}  // namespace

const char* WorkloadName(const EmpiricalCdf* workload) {
  if (workload == &WebSearchWorkload()) return "websearch";
  if (workload == &DataMiningWorkload()) return "datamining";
  return "custom";
}

Json ToJson(const SchemeParams& params) {
  return Json::Object()
      .Set("red_tail_threshold_bytes",
           Json::UInt(params.red_tail_threshold_bytes))
      .Set("red_avg_threshold_bytes",
           Json::UInt(params.red_avg_threshold_bytes))
      .Set("codel_target_us", TimeUs(params.codel.target))
      .Set("codel_interval_us", TimeUs(params.codel.interval))
      .Set("tcn_threshold_us", TimeUs(params.tcn_threshold))
      .Set("pie_target_us", TimeUs(params.pie.target))
      .Set("pie_update_interval_us", TimeUs(params.pie.update_interval))
      .Set("pie_alpha", Json::Num(params.pie.alpha))
      .Set("pie_beta", Json::Num(params.pie.beta))
      .Set("pie_min_backlog_bytes", Json::UInt(params.pie.min_backlog_bytes))
      .Set("ecn_sharp_ins_target_us", TimeUs(params.ecn_sharp.ins_target))
      .Set("ecn_sharp_pst_target_us", TimeUs(params.ecn_sharp.pst_target))
      .Set("ecn_sharp_pst_interval_us", TimeUs(params.ecn_sharp.pst_interval))
      .Set("buffer_bytes", Json::UInt(params.buffer_bytes));
}

Json ToJson(const TcpConfig& tcp) {
  return Json::Object()
      .Set("mss", Json::UInt(tcp.mss))
      .Set("init_cwnd_segments", Json::UInt(tcp.init_cwnd_segments))
      .Set("ecn_mode", Json::Str(EcnModeName(tcp.ecn_mode)))
      .Set("dctcp_g", Json::Num(tcp.dctcp_g))
      .Set("min_rto_us", TimeUs(tcp.min_rto))
      .Set("delayed_ack_count", Json::UInt(tcp.delayed_ack_count))
      .Set("pacing", Json::Bool(tcp.pacing));
}

Json ToJson(const BufferPolicyConfig& policy) {
  Json json = Json::Object()
      .Set("kind", Json::Str(BufferPolicyKindName(policy.kind)))
      .Set("total_bytes", Json::UInt(policy.total_bytes))
      .Set("alpha", Json::Num(policy.alpha))
      .Set("headroom_bytes", Json::UInt(policy.headroom_bytes));
  if (!policy.priority_alpha.empty()) {
    Json alphas = Json::Array();
    for (double a : policy.priority_alpha) alphas.Push(Json::Num(a));
    json.Set("priority_alpha", std::move(alphas));
  }
  return json;
}

Json ToJson(const SketchConfig& sketch) {
  return Json::Object()
      .Set("memory_kb", Json::UInt(sketch.memory_kb))
      .Set("depth", Json::UInt(sketch.depth))
      .Set("epoch_us", TimeUs(sketch.epoch))
      .Set("window_epochs", Json::UInt(sketch.window_epochs))
      .Set("decay", Json::Num(sketch.decay))
      .Set("heavy_hitters", Json::UInt(sketch.heavy_hitters))
      .Set("track_exact", Json::Bool(sketch.track_exact));
}

Json ToJson(const ScenarioAction& action) {
  return Json::Object()
      .Set("kind", Json::Str(ScenarioActionKindName(action.kind)))
      .Set("at_us", TimeUs(action.at))
      .Set("target", Json::Int(action.target))
      .Set("delay_us", Json::Num(action.delay_us))
      .Set("delay_hi_us", Json::Num(action.delay_hi_us))
      .Set("gbps", Json::Num(action.gbps))
      .Set("drop_prob", Json::Num(action.drop_prob))
      .Set("corrupt_prob", Json::Num(action.corrupt_prob))
      .Set("flows", Json::UInt(action.flows))
      .Set("bytes", Json::UInt(action.bytes))
      .Set("drop_queued", Json::Bool(action.drop_queued))
      .Set("repeat", Json::UInt(action.repeat))
      .Set("period_us", TimeUs(action.period))
      .Set("jitter_us", TimeUs(action.jitter));
}

Json ToJson(const ScenarioScript& script) {
  Json actions = Json::Array();
  for (const ScenarioAction& action : script.actions) {
    actions.Push(ToJson(action));
  }
  return Json::Object()
      .Set("seed", Json::UInt(script.seed))
      .Set("actions", std::move(actions));
}

namespace {

bool ScenarioError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Reads a count field into a uint32; false if the value would not fit.
bool ReadU32(const Json& v, std::uint32_t fallback, std::uint32_t* out) {
  if (v.AsDouble() > static_cast<double>(UINT32_MAX)) return false;
  *out = static_cast<std::uint32_t>(v.AsUInt(fallback));
  return true;
}

}  // namespace

bool ScenarioScriptFromJson(const Json& json, ScenarioScript* out,
                            std::string* error) {
  if (!json.IsObject()) {
    return ScenarioError(error, "scenario: top level must be an object");
  }
  ScenarioScript script;
  if (const Json* seed = json.Find("seed")) {
    if (!seed->IsNumber()) {
      return ScenarioError(error, "scenario: 'seed' must be a number");
    }
    script.seed = seed->AsUInt(1);
  }
  const Json* actions = json.Find("actions");
  if (actions == nullptr || !actions->IsArray()) {
    return ScenarioError(error, "scenario: missing 'actions' array");
  }
  for (std::size_t i = 0; i < actions->items().size(); ++i) {
    const Json& entry = actions->items()[i];
    const std::string where = "scenario action #" + std::to_string(i);
    if (!entry.IsObject()) {
      return ScenarioError(error, where + ": must be an object");
    }
    const Json* kind = entry.Find("kind");
    if (kind == nullptr || !kind->IsString()) {
      return ScenarioError(error, where + ": missing string 'kind'");
    }
    ScenarioAction action;
    if (!ParseScenarioActionKind(kind->AsString(), &action.kind)) {
      return ScenarioError(error,
                           where + ": unknown kind '" + kind->AsString() + "'");
    }
    if (const Json* v = entry.Find("at_us")) {
      if (v->AsDouble(-1.0) < 0.0) {
        return ScenarioError(error, where + ": 'at_us' must be >= 0");
      }
      action.at = Time::FromMicroseconds(v->AsDouble());
    }
    if (const Json* v = entry.Find("target")) {
      action.target = static_cast<int>(v->AsInt(-1));
    }
    if (const Json* v = entry.Find("delay_us")) {
      action.delay_us = v->AsDouble();
    }
    if (const Json* v = entry.Find("delay_hi_us")) {
      action.delay_hi_us = v->AsDouble();
    }
    if (const Json* v = entry.Find("gbps")) action.gbps = v->AsDouble();
    if (action.kind == ScenarioActionKind::kSetLinkRate &&
        !(action.gbps > 0.0 && action.gbps <= DataRate::kMaxGbps)) {
      return ScenarioError(error,
                           where + ": 'gbps' must lie in (0, 1000000]");
    }
    if (const Json* v = entry.Find("drop_prob")) {
      action.drop_prob = v->AsDouble();
    }
    if (const Json* v = entry.Find("corrupt_prob")) {
      action.corrupt_prob = v->AsDouble();
    }
    if (action.drop_prob < 0.0 || action.drop_prob > 1.0 ||
        action.corrupt_prob < 0.0 || action.corrupt_prob > 1.0 ||
        action.drop_prob + action.corrupt_prob > 1.0) {
      return ScenarioError(error, where + ": fault probabilities must lie in"
                                          " [0, 1] and sum to <= 1");
    }
    if (const Json* v = entry.Find("flows");
        v != nullptr && !ReadU32(*v, 0, &action.flows)) {
      return ScenarioError(error, where + ": 'flows' must be <= 4294967295");
    }
    if (const Json* v = entry.Find("bytes")) action.bytes = v->AsUInt();
    if (const Json* v = entry.Find("drop_queued")) {
      action.drop_queued = v->AsBool();
    }
    if (const Json* v = entry.Find("repeat");
        v != nullptr && !ReadU32(*v, 1, &action.repeat)) {
      return ScenarioError(error, where + ": 'repeat' must be <= 4294967295");
    }
    if (const Json* v = entry.Find("period_us")) {
      action.period = Time::FromMicroseconds(v->AsDouble());
    }
    if (const Json* v = entry.Find("jitter_us")) {
      action.jitter = Time::FromMicroseconds(v->AsDouble());
    }
    if (action.repeat > 1 && !action.period.IsPositive()) {
      return ScenarioError(
          error, where + ": 'repeat' > 1 requires a positive 'period_us'");
    }
    script.actions.push_back(action);
  }
  *out = std::move(script);
  return true;
}

bool ParseScenarioScript(const std::string& text, ScenarioScript* out,
                         std::string* error) {
  Json doc;
  if (!Json::Parse(text, &doc, error)) return false;
  return ScenarioScriptFromJson(doc, out, error);
}

namespace {

// One side of a composed fabric: its family plus the dimensions that pick
// its size (the shared rate/delay/tcp knobs ride along per side).
Json SideToJson(const ComposedSideConfig& side) {
  if (side.kind == ComposedSideConfig::Kind::kLeafSpine) {
    return Json::Object()
        .Set("kind", Json::Str("leafspine"))
        .Set("spines", Json::UInt(side.leaf_spine.spines))
        .Set("leaves", Json::UInt(side.leaf_spine.leaves))
        .Set("hosts_per_leaf", Json::UInt(side.leaf_spine.hosts_per_leaf))
        .Set("rate_bps", Json::Int(side.leaf_spine.rate.bps()))
        .Set("base_address", Json::UInt(side.leaf_spine.base_address))
        .Set("tcp", ToJson(side.leaf_spine.tcp));
  }
  return Json::Object()
      .Set("kind", Json::Str("fattree"))
      .Set("k", Json::UInt(side.fat_tree.k))
      .Set("rate_bps", Json::Int(side.fat_tree.rate.bps()))
      .Set("base_address", Json::UInt(side.fat_tree.base_address))
      .Set("tcp", ToJson(side.fat_tree.tcp));
}

// The per-family part of a fabric record: its topology name, keys that
// follow "workload" (`head`) and "flows" (`shape`), and the TCP config it
// records (the inter-DC record has none; each side records its own).
struct ShapeRecord {
  const char* topology;
  Json head = Json::Object();
  Json shape = Json::Object();
  const TcpConfig* tcp = nullptr;
};

ShapeRecord Shape(const DumbbellExperimentConfig& config) {
  ShapeRecord record{"dumbbell"};
  record.shape.Set("rtt_variation", Json::Num(config.rtt_variation))
      .Set("base_rtt_us", TimeUs(config.base_rtt))
      .Set("senders", Json::UInt(config.senders))
      .Set("rate_bps", Json::Int(config.rate.bps()));
  record.tcp = &config.tcp;
  return record;
}

ShapeRecord Shape(const LeafSpineExperimentConfig& config) {
  ShapeRecord record{"leafspine"};
  record.shape.Set("spines", Json::UInt(config.topo.spines))
      .Set("leaves", Json::UInt(config.topo.leaves))
      .Set("hosts_per_leaf", Json::UInt(config.topo.hosts_per_leaf))
      .Set("rate_bps", Json::Int(config.topo.rate.bps()))
      .Set("max_extra_delay_us", TimeUs(config.max_extra_delay));
  record.tcp = &config.topo.tcp;
  return record;
}

ShapeRecord Shape(const FatTreeExperimentConfig& config) {
  ShapeRecord record{"fattree"};
  record.shape.Set("k", Json::UInt(config.topo.k))
      .Set("rate_bps", Json::Int(config.topo.rate.bps()))
      .Set("host_link_delay_us", TimeUs(config.topo.host_link_delay))
      .Set("fabric_link_delay_us", TimeUs(config.topo.fabric_link_delay))
      .Set("max_extra_delay_us", TimeUs(config.max_extra_delay));
  record.tcp = &config.topo.tcp;
  return record;
}

ShapeRecord Shape(const InterDcExperimentConfig& config) {
  ShapeRecord record{"interdc"};
  record.head.Set("inter_workload",
                  Json::Str(WorkloadName(config.inter_workload)));
  record.shape.Set("inter_fraction", Json::Num(config.inter_fraction))
      .Set("side_a", SideToJson(config.topo.side_a))
      .Set("side_b", SideToJson(config.topo.side_b))
      .Set("border_links", Json::UInt(config.topo.border_links))
      .Set("border_rate_bps", Json::Int(config.topo.border_rate.bps()))
      .Set("border_rtt_us", TimeUs(config.topo.border_rtt))
      .Set("attach_delay_us", TimeUs(config.topo.attach_delay))
      .Set("inter_rtt_fraction", Json::Num(config.topo.inter_rtt_fraction))
      .Set("max_extra_delay_us", TimeUs(config.max_extra_delay));
  return record;
}

void Append(Json& json, const Json& keys) {
  for (const auto& [key, value] : keys.members()) json.Set(key, value);
}

// The one fabric record: shared fields around the family's shape keys.
template <typename Config>
Json ConfigRecord(const Config& config) {
  const ShapeRecord shape = Shape(config);
  Json json = Json::Object()
      .Set("topology", Json::Str(shape.topology))
      .Set("scheme", Json::Str(SchemeName(config.scheme)))
      .Set("workload", Json::Str(WorkloadName(config.workload)));
  Append(json, shape.head);
  json.Set("load", Json::Num(config.load))
      .Set("flows", Json::UInt(config.flows));
  Append(json, shape.shape);
  json.Set("seed", Json::UInt(config.seed))
      .Set("queue_sample_period_us", TimeUs(config.queue_sample_period))
      .Set("max_sim_time_us", TimeUs(config.max_sim_time));
  if (shape.tcp != nullptr) json.Set("tcp", ToJson(*shape.tcp));
  json.Set("params", ToJson(config.params));
  // Optional keys are omitted at their defaults so records of static,
  // pure-DCTCP, statically buffered, oracle-estimated runs without sketch
  // telemetry are unchanged.
  if (!config.scenario.empty()) {
    json.Set("scenario", ToJson(config.scenario));
  }
  if (config.cc_mix > 0.0) json.Set("cc_mix", Json::Num(config.cc_mix));
  if (config.buffer_policy.kind != BufferPolicyKind::kNone) {
    json.Set("buffer_policy", ToJson(config.buffer_policy));
  }
  if (config.estimator != EcnEstimator::kOracle) {
    json.Set("estimator", Json::Str("sketch"));
  }
  if (config.sketch.enabled) json.Set("sketch", ToJson(config.sketch));
  return json;
}

Json ConfigRecord(const IncastExperimentConfig& config) {
  return Json::Object()
      .Set("topology", Json::Str("incast"))
      .Set("scheme", Json::Str(SchemeName(config.scheme)))
      .Set("senders", Json::UInt(config.senders))
      .Set("long_flows", Json::UInt(config.long_flows))
      .Set("query_flows", Json::UInt(config.query_flows))
      .Set("query_min_bytes", Json::UInt(config.query_min_bytes))
      .Set("query_max_bytes", Json::UInt(config.query_max_bytes))
      .Set("burst_time_us", TimeUs(config.burst_time))
      .Set("rtt_variation", Json::Num(config.rtt_variation))
      .Set("base_rtt_us", TimeUs(config.base_rtt))
      .Set("rate_bps", Json::Int(config.rate.bps()))
      .Set("seed", Json::UInt(config.seed))
      .Set("queue_sample_period_us", TimeUs(config.queue_sample_period))
      .Set("max_sim_time_us", TimeUs(config.max_sim_time))
      .Set("tcp", ToJson(config.tcp))
      .Set("params", ToJson(config.params));
}

}  // namespace

Json ToJson(const ExperimentConfig& config) {
  return std::visit([](const auto& c) { return ConfigRecord(c); }, config);
}

Json ToJson(const FctSummary& summary) {
  return Json::Object()
      .Set("count", Json::UInt(summary.count))
      .Set("avg_us", Json::Num(summary.avg_us))
      .Set("stddev_us", Json::Num(summary.stddev_us))
      .Set("p50_us", Json::Num(summary.p50_us))
      .Set("p90_us", Json::Num(summary.p90_us))
      .Set("p99_us", Json::Num(summary.p99_us))
      .Set("max_us", Json::Num(summary.max_us));
}

Json ToJson(const QueueDiscStats& stats) {
  return Json::Object()
      .Set("enqueued", Json::UInt(stats.enqueued))
      .Set("dequeued", Json::UInt(stats.dequeued))
      .Set("dropped_overflow", Json::UInt(stats.dropped_overflow))
      .Set("dropped_aqm", Json::UInt(stats.dropped_aqm))
      .Set("purged", Json::UInt(stats.purged))
      .Set("ce_marked", Json::UInt(stats.ce_marked));
}

Json ToJson(const ExperimentResult& result) {
  Json json = Json::Object()
      .Set("overall", ToJson(result.overall))
      .Set("short_flows", ToJson(result.short_flows))
      .Set("large_flows", ToJson(result.large_flows))
      .Set("flows_started", Json::UInt(result.flows_started))
      .Set("flows_completed", Json::UInt(result.flows_completed))
      .Set("timeouts", Json::UInt(result.timeouts))
      .Set("bottleneck", ToJson(result.bottleneck))
      .Set("avg_queue_packets", Json::Num(result.avg_queue_packets))
      .Set("max_queue_packets", Json::UInt(result.max_queue_packets))
      .Set("sim_seconds", Json::Num(result.sim_seconds));
  if (result.scenario_actions != 0) {
    json.Set("scenario_actions", Json::UInt(result.scenario_actions))
        .Set("incast_bursts", Json::UInt(result.incast_bursts))
        .Set("burst_flows_started", Json::UInt(result.burst_flows_started))
        .Set("burst_flows_completed",
             Json::UInt(result.burst_flows_completed))
        .Set("injected_drops", Json::UInt(result.injected_drops))
        .Set("injected_corruptions",
             Json::UInt(result.injected_corruptions))
        .Set("link_down_drops", Json::UInt(result.link_down_drops));
  }
  // Per-controller splits exist only for mixed-CC runs.
  if (result.cubic_fct.count != 0 || result.newreno_fct.count != 0) {
    json.Set("cubic_fct", ToJson(result.cubic_fct))
        .Set("newreno_fct", ToJson(result.newreno_fct))
        .Set("cubic_bytes", Json::UInt(result.cubic_bytes))
        .Set("newreno_bytes", Json::UInt(result.newreno_bytes));
  }
  // Split traffic-matrix breakdown exists only for inter-DC runs.
  if (result.intra_fct.count != 0 || result.inter_fct.count != 0) {
    json.Set("intra_fct", ToJson(result.intra_fct))
        .Set("intra_short_fct", ToJson(result.intra_short_fct))
        .Set("inter_fct", ToJson(result.inter_fct))
        .Set("inter_short_fct", ToJson(result.inter_short_fct))
        .Set("intra_a_fct", ToJson(result.intra_a_fct))
        .Set("intra_b_fct", ToJson(result.intra_b_fct))
        .Set("intra_timeouts", Json::UInt(result.intra_timeouts))
        .Set("inter_timeouts", Json::UInt(result.inter_timeouts));
  }
  return json;
}

Json ToJson(const IncastResult& result) {
  Json trace = Json::Array();
  for (const QueueMonitor::Sample& sample : result.queue_trace) {
    trace.Push(Json::Array()
                   .Push(Json::Num(sample.at.ToMicroseconds()))
                   .Push(Json::UInt(sample.packets)));
  }
  return Json::Object()
      .Set("query_fct", ToJson(result.query_fct))
      .Set("query_timeouts", Json::UInt(result.query_timeouts))
      .Set("drops", Json::UInt(result.drops))
      .Set("total_drops", Json::UInt(result.total_drops))
      .Set("standing_queue_packets", Json::Num(result.standing_queue_packets))
      .Set("max_queue_packets", Json::UInt(result.max_queue_packets))
      .Set("queries_completed", Json::UInt(result.queries_completed))
      .Set("queue_trace", std::move(trace));
}

}  // namespace ecnsharp

// ecnsharp_cli — run any experiment from the command line.
//
//   ecnsharp_cli --topo=dumbbell --scheme=ecn-sharp --workload=websearch
//                --load=0.6 --flows=1000 --variation=3 --seed=1
//   ecnsharp_cli --topo=leafspine --scheme=dctcp-red-tail --load=0.4
//   ecnsharp_cli --topo=incast --scheme=codel --fanout=100
//   ecnsharp_cli --sweep=load:10..90:10 --jobs=8 --flows=2000
//
// Prints the experiment's FCT breakdown (or incast metrics) as a table.
// With --sweep, runs the whole grid through the parallel runner and also
// exports results/<name>.json. Run with --help for all options.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config_json.h"
#include "harness/experiment.h"
#include "harness/sketch_export.h"
#include "harness/table.h"
#include "harness/trace_export.h"
#include "runner/job.h"
#include "runner/json_export.h"
#include "runner/sweep.h"
#include "sim/logging.h"
#include "trace/trace_config.h"
#include "trace/trace_recorder.h"
#include "workload/empirical_cdf.h"

namespace {

using namespace ecnsharp;

[[noreturn]] void FlagError(const std::string& key, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "invalid value for --%s: '%s' (expected %s)\n",
               key.c_str(), value.c_str(), expected);
  std::exit(2);
}

double ParseDoubleOrDie(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    FlagError(key, value, "a number");
  }
  return parsed;
}

std::uint64_t ParseU64OrDie(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  // strtoull silently accepts "-1" by wrapping; reject any sign explicitly.
  if (*begin == '-' || *begin == '+') {
    FlagError(key, value, "a non-negative integer");
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t parsed = std::strtoull(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE) {
    FlagError(key, value, "a non-negative integer");
  }
  return parsed;
}

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.contains(key); }
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : ParseDoubleOrDie(key, it->second);
  }
  std::uint64_t GetU64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : ParseU64OrDie(key, it->second);
  }
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      flags.values[arg] = "1";
    } else {
      flags.values[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return flags;
}

// --scenario accepts either a path to a JSON script or the script inline
// (a value starting with '{'). Any parse or validation failure is fatal:
// a silently-ignored scenario would make "static" results look dynamic.
ScenarioScript LoadScenarioOrDie(const std::string& value) {
  std::string text = value;
  if (value.empty() || value[0] != '{') {
    std::ifstream in(value);
    if (!in) {
      std::fprintf(stderr, "cannot read --scenario file '%s'\n",
                   value.c_str());
      std::exit(2);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  ScenarioScript script;
  std::string error;
  if (!ParseScenarioScript(text, &script, &error)) {
    std::fprintf(stderr, "invalid --scenario script: %s\n", error.c_str());
    std::exit(2);
  }
  return script;
}

int Usage() {
  std::printf(
      "ecnsharp_cli — run an ECN# experiment\n\n"
      "  --topo=dumbbell|leafspine|fattree|interdc|incast\n"
      "                                     topology (default dumbbell)\n"
      "  --topology=dumbbell|leafspine|fattree|interdc\n"
      "                                     alias of --topo for the\n"
      "                                     scenario-capable topologies;\n"
      "                                     overrides --topo when both are\n"
      "                                     given\n"
      "  --border-rtt-us=<us>               interdc: extra round-trip of each\n"
      "                                     border link, in [0, 10000000]\n"
      "                                     (default 2000)\n"
      "  --border-gbps=<g>                  interdc: per-border-link rate\n"
      "                                     (default 10)\n"
      "  --border-links=<n >= 1>            interdc: parallel border links\n"
      "                                     (default 1)\n"
      "  --inter-fraction=<0..1>            interdc: fraction of flows that\n"
      "                                     cross the border (default 0.1)\n"
      "  --inter-workload=websearch|datamining\n"
      "                                     interdc: size distribution of\n"
      "                                     the cross-border flows (default\n"
      "                                     datamining)\n"
      "  --k=<even n>=4>                    fat-tree arity: k^3/4 hosts\n"
      "                                     (default 8 -> 128 hosts)\n"
      "  --rate-gbps=<g>                    fat-tree link rate (default 10)\n"
      "  --host-delay-us=<us>               fat-tree host<->edge hop delay\n"
      "                                     (default 10)\n"
      "  --fabric-delay-us=<us>             fat-tree switch<->switch hop\n"
      "                                     delay (default 10)\n"
      "  --relaxed-lanes=<n>                fat-tree only: execute pods on\n"
      "                                     n event lanes (threads), 2 <= n\n"
      "                                     <= k+1, under the conservative-\n"
      "                                     window scheme. Deterministic for\n"
      "                                     a given config+n but not\n"
      "                                     byte-comparable with the\n"
      "                                     single-lane run; rejects\n"
      "                                     --scenario/--trace/--sketch\n"
      "  --scheme=<name>                    dctcp-red-tail, dctcp-red-avg,\n"
      "                                     codel, tcn, ecn-sharp,\n"
      "                                     ecn-sharp-tofino, droptail, pie,\n"
      "                                     ecn-sharp-inst-only,\n"
      "                                     ecn-sharp-pst-only\n"
      "  --workload=websearch|datamining    flow size distribution (not\n"
      "                                     incast)\n"
      "  --load=<0..1>                      offered load (default 0.5; not\n"
      "                                     incast)\n"
      "  --flows=<n>                        flow count (default 1000; not\n"
      "                                     incast)\n"
      "  --variation=<k>                    dumbbell: RTT variation factor\n"
      "                                     (default 3)\n"
      "  --fanout=<n>                       incast: query flows (default\n"
      "                                     100)\n"
      "  --seed=<n>                         RNG seed (default 1)\n"
      "  --sim-params                       dumbbell: use the paper's\n"
      "                                     simulation parameter preset\n"
      "                                     (§5.3; the fabrics always do)\n"
      "  --scenario=<file.json|{inline}>    mid-run network dynamics script\n"
      "                                     (link churn, loss injection,\n"
      "                                     RTT shifts, incast bursts) for\n"
      "                                     dumbbell, leafspine, fattree or\n"
      "                                     interdc; see docs/extending.md.\n"
      "                                     Single runs with a scenario also\n"
      "                                     export results/<name>.json\n"
      "  --sweep=<param:lo..hi:step[,...]>  run a grid instead of a single\n"
      "                                     experiment; params: load (in\n"
      "                                     percent), flows, variation,\n"
      "                                     fanout, seed. Example:\n"
      "                                     --sweep=load:10..90:10\n"
      "  --jobs=<n>                         worker threads for --sweep\n"
      "                                     (default $ECNSHARP_JOBS or 1)\n"
      "  --name=<name>                      sweep name; JSON lands in\n"
      "                                     results/<name>.json (default\n"
      "                                     cli_sweep)\n"
      "  --trace=<spec>                     flight-recorder tracing for a\n"
      "                                     single run (not --sweep). Spec is\n"
      "                                     'on' or comma-separated terms:\n"
      "                                     events:<n>, points:<n>,\n"
      "                                     queue:on|off, flows:on|off; see\n"
      "                                     docs/observability.md\n"
      "  --trace-out=<path>                 trace destination (default\n"
      "                                     results/<name>_trace.json; a\n"
      "                                     .csv suffix exports the flat\n"
      "                                     event table instead)\n"
      "  --sketch=<spec>                    bounded-memory sketch telemetry\n"
      "                                     for a single run (not --sweep).\n"
      "                                     Spec is 'on' or comma-separated\n"
      "                                     terms: mem:<kb>, depth:<d>,\n"
      "                                     epoch:<us>, window:<n>,\n"
      "                                     decay:<pct>, hh:<k>,\n"
      "                                     exact:on|off; see\n"
      "                                     docs/observability.md\n"
      "  --sketch-out=<path>                telemetry destination (default\n"
      "                                     results/<name>_sketch.json)\n"
      "  --estimator=oracle|sketch          measurement source for scenario\n"
      "                                     ECN# re-estimation actions\n"
      "                                     (default oracle; sketch needs\n"
      "                                     --sketch)\n"
      "  --cc-mix=<0..1>                    fraction of flows driven by\n"
      "                                     CUBIC instead of the default\n"
      "                                     DCTCP sender (default 0; not\n"
      "                                     incast)\n"
      "  --buffer-policy=static|dt|dt-headroom\n"
      "                                     shared-buffer policy per switch\n"
      "                                     chip replacing static per-port\n"
      "                                     buffers (default: none; not\n"
      "                                     incast)\n"
      "  --buffer-kb=<kb>                   shared pool size per chip in KB\n"
      "                                     (default: queue count x the\n"
      "                                     per-port buffer); requires\n"
      "                                     --buffer-policy\n"
      "  --alpha=<a>                        dynamic-threshold alpha\n"
      "                                     (default 1); requires\n"
      "                                     --buffer-policy\n"
      "  --help                             this text\n");
  return 0;
}

bool ParseScheme(const std::string& name, Scheme& out) {
  static const std::map<std::string, Scheme> kNames = {
      {"dctcp-red-tail", Scheme::kDctcpRedTail},
      {"dctcp-red-avg", Scheme::kDctcpRedAvg},
      {"codel", Scheme::kCodel},
      {"tcn", Scheme::kTcn},
      {"ecn-sharp", Scheme::kEcnSharp},
      {"ecn-sharp-tofino", Scheme::kEcnSharpTofino},
      {"droptail", Scheme::kDropTail},
      {"pie", Scheme::kPie},
      {"ecn-sharp-inst-only", Scheme::kEcnSharpInstOnly},
      {"ecn-sharp-pst-only", Scheme::kEcnSharpPstOnly},
  };
  const auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  out = it->second;
  return true;
}

void PrintFctResult(const ExperimentResult& r) {
  TablePrinter table({"metric", "count", "avg(us)", "p50(us)", "p90(us)",
                      "p99(us)", "max(us)"});
  const auto row = [&table](const char* name, const FctSummary& s) {
    table.AddRow({name, std::to_string(s.count),
                  TablePrinter::Fmt(s.avg_us, 1),
                  TablePrinter::Fmt(s.p50_us, 1),
                  TablePrinter::Fmt(s.p90_us, 1),
                  TablePrinter::Fmt(s.p99_us, 1),
                  TablePrinter::Fmt(s.max_us, 1)});
  };
  row("overall", r.overall);
  row("short (<100KB)", r.short_flows);
  row("large (>10MB)", r.large_flows);
  if (r.cubic_fct.count != 0 || r.newreno_fct.count != 0) {
    row("cubic flows", r.cubic_fct);
    row("newreno flows", r.newreno_fct);
  }
  // Split traffic-matrix rows exist only for inter-DC composed runs.
  if (r.intra_fct.count != 0 || r.inter_fct.count != 0) {
    row("intra-DC", r.intra_fct);
    row("intra-DC short", r.intra_short_fct);
    row("inter-DC", r.inter_fct);
    row("inter-DC short", r.inter_short_fct);
  }
  table.Print();
  std::printf(
      "flows: %zu/%zu completed  timeouts: %llu  CE marks: %llu  drops: "
      "%llu  sim time: %.3fs\n",
      r.flows_completed, r.flows_started,
      static_cast<unsigned long long>(r.timeouts),
      static_cast<unsigned long long>(r.bottleneck.ce_marked),
      static_cast<unsigned long long>(r.bottleneck.dropped_overflow),
      r.sim_seconds);
  if (r.scenario_actions > 0) {
    std::printf(
        "scenario: %llu actions (%llu incast bursts, %zu/%zu burst flows)  "
        "injected drops: %llu  corruptions: %llu  link-down drops: %llu\n",
        static_cast<unsigned long long>(r.scenario_actions),
        static_cast<unsigned long long>(r.incast_bursts),
        r.burst_flows_completed, r.burst_flows_started,
        static_cast<unsigned long long>(r.injected_drops),
        static_cast<unsigned long long>(r.injected_corruptions),
        static_cast<unsigned long long>(r.link_down_drops));
  }
}

// Scenario runs go through the runner so the full record (config + scenario
// + dynamics counters) lands in results/<name>.json, byte-identical to what
// a sweep over the same point would export.
ExperimentOutcome RunSingleViaRunner(const Flags& flags, Scheme scheme,
                                     const ExperimentConfig& config) {
  std::vector<runner::JobResult> results =
      runner::RunSweep(flags.Get("name", "cli_run"),
                       {{std::string(SchemeName(scheme)), config}});
  return std::move(results[0].result);
}

// Writes the trace collected by a single run to --trace-out (default
// results/<name>_trace.json; a .csv suffix selects the flat event table).
// A null trace means the run never created a recorder — fatal, since the
// user explicitly asked for one.
void ExportTraceOrDie(const Flags& flags,
                      const std::shared_ptr<const TraceRecorder>& trace) {
  if (trace == nullptr) {
    std::fprintf(stderr, "--trace produced no trace (internal error)\n");
    std::exit(1);
  }
  const std::string name = flags.Get("name", "cli_run");
  const std::string path =
      flags.Get("trace-out", "results/" + name + "_trace.json");
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (!runner::WriteTextFile(path, csv ? TraceToCsv(*trace)
                                       : TraceToJson(*trace).Dump())) {
    std::fprintf(stderr, "cannot write --trace-out file '%s'\n", path.c_str());
    std::exit(1);
  }
  std::printf("trace: %llu events (%llu retained) -> %s\n",
              static_cast<unsigned long long>(trace->total_events()),
              static_cast<unsigned long long>(trace->total_events() -
                                              trace->overwritten()),
              path.c_str());
}

// Writes the sketch telemetry of a single run to --sketch-out (default
// results/<name>_sketch.json). Windowed views are queried at the
// telemetry's last observation time.
void ExportSketchOrDie(const Flags& flags,
                       const std::shared_ptr<const SketchTelemetry>& sketch) {
  if (sketch == nullptr) {
    std::fprintf(stderr, "--sketch produced no telemetry (internal error)\n");
    std::exit(1);
  }
  const std::string name = flags.Get("name", "cli_run");
  const std::string path =
      flags.Get("sketch-out", "results/" + name + "_sketch.json");
  if (!runner::WriteTextFile(
          path, SketchToJson(*sketch, sketch->last_update()).Dump())) {
    std::fprintf(stderr, "cannot write --sketch-out file '%s'\n",
                 path.c_str());
    std::exit(1);
  }
  std::printf("sketch: %llu packets, %zu KiB flow state -> %s\n",
              static_cast<unsigned long long>(sketch->packets_observed()),
              sketch->FlowSketchMemoryBytes() / 1024, path.c_str());
}

// Mixed-CC share; validated to [0, 1].
double CcMixFromFlags(const Flags& flags) {
  const double mix = flags.GetDouble("cc-mix", 0.0);
  if (mix < 0.0 || mix > 1.0) {
    FlagError("cc-mix", flags.Get("cc-mix", ""), "a fraction in [0, 1]");
  }
  return mix;
}

// Shared-buffer policy knobs. --buffer-kb and --alpha only make sense with a
// policy selected, so naming them alone is a config error, not a silent
// no-op.
BufferPolicyConfig BufferPolicyFromFlags(const Flags& flags) {
  BufferPolicyConfig policy;
  if (flags.Has("buffer-policy")) {
    const std::string value = flags.Get("buffer-policy", "");
    const std::optional<BufferPolicyKind> kind = ParseBufferPolicyKind(value);
    if (!kind.has_value() || *kind == BufferPolicyKind::kNone) {
      FlagError("buffer-policy", value, "static, dt or dt-headroom");
    }
    policy.kind = *kind;
  } else if (flags.Has("buffer-kb") || flags.Has("alpha")) {
    std::fprintf(stderr, "--buffer-kb/--alpha require --buffer-policy\n");
    std::exit(2);
  }
  const std::uint64_t buffer_kb = flags.GetU64("buffer-kb", 0);
  if (buffer_kb > std::numeric_limits<std::uint64_t>::max() / 1024) {
    FlagError("buffer-kb", flags.Get("buffer-kb", ""),
              "a pool size whose byte count fits in 64 bits");
  }
  policy.total_bytes = buffer_kb * 1024;
  // MakeBufferPolicy validates alpha and the pool size for every caller.
  policy.alpha = flags.GetDouble("alpha", 1.0);
  return policy;
}

// Fat-tree shape/link knobs. The arity and rate are validated here so a bad
// --k or --rate-gbps fails at flag-parse time with the CLI's usual exit 2
// (the FatTree constructor would also reject them).
FatTreeConfig FatTreeConfigFromFlags(const Flags& flags) {
  FatTreeConfig topo;
  topo.k = flags.GetU64("k", 8);
  if (topo.k < 4 || topo.k % 2 != 0) {
    FlagError("k", flags.Get("k", ""), "an even integer >= 4");
  }
  const double rate_gbps = flags.GetDouble("rate-gbps", 10.0);
  if (!(rate_gbps > 0.0 && rate_gbps <= DataRate::kMaxGbps)) {
    FlagError("rate-gbps", flags.Get("rate-gbps", ""),
              "a rate in (0, 1000000] Gbit/s");
  }
  topo.rate = DataRate::GigabitsPerSecond(rate_gbps);
  topo.host_link_delay =
      Time::FromMicroseconds(flags.GetDouble("host-delay-us", 10.0));
  topo.fabric_link_delay =
      Time::FromMicroseconds(flags.GetDouble("fabric-delay-us", 10.0));
  return topo;
}

// Inter-DC composed-fabric knobs on top of `config`'s shared fields. Border
// numbers are validated here so a bad flag fails at parse time with the
// CLI's usual exit 2 (the ComposedTopology constructor would also reject
// them, with the same status).
void InterDcShapeFromFlags(const Flags& flags,
                           InterDcExperimentConfig& config) {
  const std::string inter_workload = flags.Get("inter-workload", "datamining");
  if (inter_workload == "websearch") {
    config.inter_workload = &WebSearchWorkload();
  } else if (inter_workload == "datamining") {
    config.inter_workload = &DataMiningWorkload();
  } else {
    FlagError("inter-workload", inter_workload, "websearch or datamining");
  }
  config.inter_fraction = flags.GetDouble("inter-fraction", 0.1);
  if (config.inter_fraction < 0.0 || config.inter_fraction > 1.0) {
    FlagError("inter-fraction", flags.Get("inter-fraction", ""),
              "a fraction in [0, 1]");
  }
  config.topo.border_links = flags.GetU64("border-links", 1);
  if (config.topo.border_links < 1) {
    FlagError("border-links", flags.Get("border-links", ""),
              "an integer >= 1");
  }
  const double border_gbps = flags.GetDouble("border-gbps", 10.0);
  if (!(border_gbps > 0.0 && border_gbps <= DataRate::kMaxGbps)) {
    FlagError("border-gbps", flags.Get("border-gbps", ""),
              "a rate in (0, 1000000] Gbit/s");
  }
  config.topo.border_rate = DataRate::GigabitsPerSecond(border_gbps);
  const double border_rtt_us = flags.GetDouble("border-rtt-us", 2000.0);
  if (border_rtt_us < 0.0 || border_rtt_us > 10'000'000.0) {
    FlagError("border-rtt-us", flags.Get("border-rtt-us", ""),
              "microseconds in [0, 10000000]");
  }
  config.topo.border_rtt = Time::FromMicroseconds(border_rtt_us);
}

// Largest --sweep grid, and the largest swept seed/flows/fanout (every
// whole number up to 2^53 is exact as a double).
constexpr double kMaxSweepPoints = 10000;
constexpr double kMaxWhole = 9007199254740992.0;

// One swept parameter: `load:10..90:10` expands to {10, 20, ..., 90}.
struct SweepAxis {
  std::string param;
  std::vector<double> values;
};

[[noreturn]] void SweepError(const std::string& spec, const char* why) {
  std::fprintf(stderr,
               "invalid --sweep term '%s': %s\n"
               "expected param:start..end:step, e.g. load:10..90:10\n",
               spec.c_str(), why);
  std::exit(2);
}

SweepAxis ParseSweepAxis(const std::string& spec) {
  const std::size_t colon1 = spec.find(':');
  if (colon1 == std::string::npos) SweepError(spec, "missing ':'");
  const std::size_t dots = spec.find("..", colon1 + 1);
  if (dots == std::string::npos) SweepError(spec, "missing '..' range");
  const std::size_t colon2 = spec.find(':', dots + 2);
  if (colon2 == std::string::npos) SweepError(spec, "missing ':step'");

  SweepAxis axis;
  axis.param = spec.substr(0, colon1);
  static const char* kParams[] = {"load", "flows", "variation", "fanout",
                                  "seed"};
  bool known = false;
  for (const char* p : kParams) known = known || axis.param == p;
  if (!known) SweepError(spec, "unknown parameter");

  const double start =
      ParseDoubleOrDie("sweep", spec.substr(colon1 + 1, dots - colon1 - 1));
  const double end =
      ParseDoubleOrDie("sweep", spec.substr(dots + 2, colon2 - dots - 2));
  const double step = ParseDoubleOrDie("sweep", spec.substr(colon2 + 1));
  if (!std::isfinite(start) || !std::isfinite(end) || !std::isfinite(step)) {
    SweepError(spec, "start, end and step must be finite");
  }
  if (step <= 0) SweepError(spec, "step must be > 0");
  if (end < start) SweepError(spec, "end must be >= start");
  // The point count is fixed up front: once step falls below v's precision,
  // `v += step` no longer advances. Epsilon absorbs floating-point error on
  // non-integer steps.
  const double span = (end - start) / step + 1e-9;
  if (!(span < kMaxSweepPoints)) SweepError(spec, "more than 10000 points");
  const auto count = static_cast<std::size_t>(span) + 1;
  const bool whole = axis.param == "seed" || axis.param == "flows" ||
                     axis.param == "fanout";
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v += step) {
    if (whole && !(v >= 0 && v <= kMaxWhole && v == std::floor(v))) {
      SweepError(spec, "seed, flows and fanout must be whole numbers in "
                       "[0, 2^53]");
    }
    if (axis.param == "load" && !(v > 0)) SweepError(spec, "load must be > 0");
    if (axis.param == "variation" && !(v >= 1)) {
      SweepError(spec, "variation must be >= 1");
    }
    axis.values.push_back(v);
  }
  return axis;
}

std::vector<SweepAxis> ParseSweep(const std::string& value) {
  std::vector<SweepAxis> axes;
  double points = 1;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    axes.push_back(ParseSweepAxis(value.substr(pos, comma - pos)));
    points *= static_cast<double>(axes.back().values.size());
    if (points > kMaxSweepPoints) {
      SweepError(value, "grid has more than 10000 points");
    }
    pos = comma + 1;
  }
  return axes;
}

// Human-readable value for job names: integers print without a decimal.
std::string FmtValue(double v) {
  if (std::fabs(v) <= kMaxWhole && v == std::floor(v)) {
    return std::to_string(static_cast<long long>(v));
  }
  return TablePrinter::Fmt(v, 3);
}

struct GridPoint {
  std::string name;  // "load=30,variation=5"
  std::map<std::string, double> overrides;

  // The swept value of `param` at this point, else `fallback`.
  double Get(const std::string& param, double fallback) const {
    const auto it = overrides.find(param);
    return it == overrides.end() ? fallback : it->second;
  }
};

std::vector<GridPoint> ExpandGrid(const std::vector<SweepAxis>& axes) {
  std::vector<GridPoint> points = {{"", {}}};
  for (const SweepAxis& axis : axes) {
    std::vector<GridPoint> next;
    for (const GridPoint& base : points) {
      for (const double v : axis.values) {
        GridPoint point = base;
        if (!point.name.empty()) point.name += ",";
        point.name += axis.param + "=" + FmtValue(v);
        point.overrides[axis.param] = v;
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

// A fabric config of type `Config` carrying `common`'s shared fields.
template <typename Config>
Config WithCommon(const ExperimentCommon& common) {
  Config config;
  static_cast<ExperimentCommon&>(config) = common;
  return config;
}

// The experiment the flags describe for `topo`. `common` holds the shared
// fields parsed once in main(); the per-run numbers (load, flows, seed,
// variation, fanout) come from the flags, or from `point` for a --sweep
// grid point (null for single runs).
ExperimentConfig ConfigFromFlags(const Flags& flags, const std::string& topo,
                                 ExperimentCommon common,
                                 const GridPoint* point) {
  common.seed = flags.GetU64("seed", 1);
  if (point != nullptr) {
    common.seed = static_cast<std::uint64_t>(
        point->Get("seed", static_cast<double>(common.seed)));
  }
  if (topo == "incast") {
    IncastExperimentConfig config;
    config.scheme = common.scheme;
    config.query_flows = flags.GetU64("fanout", 100);
    if (point != nullptr) {
      config.query_flows = static_cast<std::size_t>(
          point->Get("fanout", static_cast<double>(config.query_flows)));
    }
    config.seed = common.seed;
    config.trace = common.trace;
    config.sketch = common.sketch;
    return config;
  }

  common.load = flags.GetDouble("load", 0.5);
  if (!(std::isfinite(common.load) && common.load > 0)) {
    FlagError("load", flags.Get("load", ""), "a finite load > 0");
  }
  common.flows = flags.GetU64("flows", 1000);
  if (point != nullptr) {
    // Sweep loads are in percent (load:10..90:10); single-run --load=0..1.
    common.load = point->Get("load", common.load * 100) / 100;
    common.flows = static_cast<std::size_t>(
        point->Get("flows", static_cast<double>(common.flows)));
  }
  // The fabrics run the paper's simulation parameters; the dumbbell runs
  // the testbed's unless --sim-params asks otherwise (main() rejects the
  // flag off the dumbbell).
  if (topo != "dumbbell" || flags.Has("sim-params")) {
    common.params = SimulationSchemeParams();
  }
  if (topo == "dumbbell") {
    auto config = WithCommon<DumbbellExperimentConfig>(common);
    config.rtt_variation = flags.GetDouble("variation", 3.0);
    if (!(std::isfinite(config.rtt_variation) && config.rtt_variation >= 1)) {
      FlagError("variation", flags.Get("variation", ""),
                "a finite factor >= 1");
    }
    if (point != nullptr) {
      config.rtt_variation = point->Get("variation", config.rtt_variation);
    }
    return config;
  }
  if (topo == "leafspine") {
    return WithCommon<LeafSpineExperimentConfig>(common);
  }
  if (topo == "fattree") {
    auto config = WithCommon<FatTreeExperimentConfig>(common);
    config.topo = FatTreeConfigFromFlags(flags);
    return config;
  }
  auto config = WithCommon<InterDcExperimentConfig>(common);
  InterDcShapeFromFlags(flags, config);
  return config;
}

int RunSweepMode(const Flags& flags, const std::string& topo,
                 const ExperimentCommon& common) {
  const std::vector<SweepAxis> axes = ParseSweep(flags.Get("sweep", ""));
  for (const SweepAxis& axis : axes) {
    const bool applies =
        topo == "incast"
            ? axis.param == "fanout" || axis.param == "seed"
            : axis.param != "fanout" &&
                  (axis.param != "variation" || topo == "dumbbell");
    if (!applies) {
      std::fprintf(stderr, "--sweep param '%s' does not apply to --topo=%s\n",
                   axis.param.c_str(), topo.c_str());
      return 2;
    }
  }

  std::vector<runner::JobSpec> specs;
  for (const GridPoint& point : ExpandGrid(axes)) {
    specs.push_back({point.name, ConfigFromFlags(flags, topo, common, &point)});
  }

  const std::string name = flags.Get("name", "cli_sweep");
  runner::SweepOptions options;
  options.jobs = static_cast<std::size_t>(flags.GetU64("jobs", 0));
  PrintBanner("sweep / " + topo + " / " +
              std::string(SchemeName(common.scheme)) + " — " +
              std::to_string(specs.size()) + " jobs");
  const std::vector<runner::JobResult> results =
      runner::RunSweep(name, specs, options);

  if (topo == "incast") {
    TablePrinter table({"point", "standing q(pkts)", "peak q(pkts)", "drops",
                        "query avg(us)", "query p99(us)", "timeouts"});
    for (const runner::JobResult& job : results) {
      const IncastResult& r = runner::IncastResultOf(job);
      table.AddRow({job.name, TablePrinter::Fmt(r.standing_queue_packets, 1),
                    std::to_string(r.max_queue_packets),
                    std::to_string(r.drops),
                    TablePrinter::Fmt(r.query_fct.avg_us, 1),
                    TablePrinter::Fmt(r.query_fct.p99_us, 1),
                    std::to_string(r.query_timeouts)});
    }
    table.Print();
  } else {
    TablePrinter table({"point", "overall avg(us)", "short avg(us)",
                        "short p99(us)", "large avg(us)", "timeouts"});
    for (const runner::JobResult& job : results) {
      const ExperimentResult& r = runner::FctResult(job);
      table.AddRow({job.name, TablePrinter::Fmt(r.overall.avg_us, 1),
                    TablePrinter::Fmt(r.short_flows.avg_us, 1),
                    TablePrinter::Fmt(r.short_flows.p99_us, 1),
                    TablePrinter::Fmt(r.large_flows.avg_us, 1),
                    std::to_string(r.timeouts)});
    }
    table.Print();
  }
  return 0;
}

// Prints the incast metrics of a single run.
void PrintIncastResult(const IncastResult& r) {
  TablePrinter table({"metric", "value"});
  table.AddRow({"standing queue (pkts)",
                TablePrinter::Fmt(r.standing_queue_packets, 1)});
  table.AddRow({"peak queue (pkts)", std::to_string(r.max_queue_packets)});
  table.AddRow({"burst drops", std::to_string(r.drops)});
  table.AddRow(
      {"query avg FCT (us)", TablePrinter::Fmt(r.query_fct.avg_us, 1)});
  table.AddRow(
      {"query p99 FCT (us)", TablePrinter::Fmt(r.query_fct.p99_us, 1)});
  table.AddRow({"query timeouts", std::to_string(r.query_timeouts)});
  table.Print();
}

// Banner of a single run: topology (with its headline dimension), scheme,
// and workload (fanout for incast).
std::string Banner(const std::string& topo, const ExperimentConfig& config,
                   const std::string& scheme, const std::string& workload) {
  if (const auto* c = std::get_if<IncastExperimentConfig>(&config)) {
    return "incast / " + scheme + " / fanout " +
           std::to_string(c->query_flows);
  }
  std::string shape = topo;
  if (topo == "leafspine") shape = "leaf-spine";
  if (const auto* c = std::get_if<FatTreeExperimentConfig>(&config)) {
    shape = "fat-tree k=" + std::to_string(c->topo.k);
  }
  if (const auto* c = std::get_if<InterDcExperimentConfig>(&config)) {
    shape = "interdc border " +
            std::to_string(static_cast<long long>(
                c->topo.border_rtt.ToMicroseconds())) +
            "us";
  }
  return shape + " / " + scheme + " / " + workload;
}

// Exits 2 with `message` on stderr when `bad` holds — for flag
// combinations that would otherwise be silently ignored.
void RejectIf(bool bad, const std::string& message) {
  if (!bad) return;
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.Has("help")) return Usage();

  // The shared fields of every experiment, parsed once.
  ExperimentCommon common;
  RejectIf(!ParseScheme(flags.Get("scheme", "ecn-sharp"), common.scheme),
           "unknown scheme '" + flags.Get("scheme", "") + "' (see --help)");
  const std::string workload_name = flags.Get("workload", "websearch");
  if (workload_name == "websearch") {
    common.workload = &WebSearchWorkload();
  } else if (workload_name == "datamining") {
    common.workload = &DataMiningWorkload();
  } else {
    FlagError("workload", workload_name, "websearch or datamining");
  }
  std::string topo = flags.Get("topo", "dumbbell");
  RejectIf(topo != "dumbbell" && topo != "leafspine" && topo != "fattree" &&
               topo != "interdc" && topo != "incast",
           "unknown topo '" + topo + "' (see --help)");
  // --topology selects among the scenario-capable topologies and overrides
  // --topo, so scripts composing `--scenario` never land on incast.
  if (flags.Has("topology")) {
    topo = flags.Get("topology", "");
    RejectIf(topo != "dumbbell" && topo != "leafspine" && topo != "fattree" &&
                 topo != "interdc",
             "invalid --topology '" + topo +
                 "' (expected dumbbell, leafspine, fattree or interdc)");
  }

  // Knobs that are meaningless for the chosen topology or mode are config
  // errors, not silent no-ops.
  RejectIf(topo != "interdc" &&
               (flags.Has("border-rtt-us") || flags.Has("border-gbps") ||
                flags.Has("border-links") || flags.Has("inter-fraction") ||
                flags.Has("inter-workload")),
           "--border-rtt-us/--border-gbps/--border-links/--inter-fraction/"
           "--inter-workload apply to --topo=interdc");
  RejectIf(topo != "fattree" &&
               (flags.Has("k") || flags.Has("rate-gbps") ||
                flags.Has("host-delay-us") || flags.Has("fabric-delay-us")),
           "--k/--rate-gbps/--host-delay-us/--fabric-delay-us apply to "
           "--topo=fattree");
  RejectIf(topo != "dumbbell" && flags.Has("variation"),
           "--variation applies to --topo=dumbbell");
  RejectIf(topo != "incast" && flags.Has("fanout"),
           "--fanout applies to --topo=incast");
  RejectIf(topo == "incast" &&
               (flags.Has("workload") || flags.Has("load") ||
                flags.Has("flows") || flags.Has("sim-params")),
           "--workload/--load/--flows/--variation/--sim-params do not apply "
           "to --topo=incast");
  RejectIf(topo != "dumbbell" && flags.Has("sim-params"),
           "--sim-params applies to --topo=dumbbell");
  RejectIf(topo == "incast" &&
               (flags.Has("cc-mix") || flags.Has("buffer-policy") ||
                flags.Has("buffer-kb") || flags.Has("alpha")),
           "--cc-mix/--buffer-policy apply to --topo=dumbbell, leafspine, "
           "fattree or interdc");
  if (flags.Has("scenario")) {
    RejectIf(topo == "incast",
             "--scenario applies to --topo=dumbbell, leafspine, fattree or "
             "interdc");
    common.scenario = LoadScenarioOrDie(flags.Get("scenario", ""));
  }

  std::string error;
  if (flags.Has("trace")) {
    RejectIf(flags.Has("sweep"),
             "--trace applies to single runs, not --sweep (traces are "
             "per-run; rerun the point of interest without --sweep)");
    const bool ok =
        ParseTraceSpec(flags.Get("trace", "on"), &common.trace, &error);
    RejectIf(!ok, "invalid --trace spec: " + error);
  }
  RejectIf(flags.Has("trace-out") && !flags.Has("trace"),
           "--trace-out requires --trace");
  if (flags.Has("sketch")) {
    RejectIf(flags.Has("sweep"),
             "--sketch applies to single runs, not --sweep (telemetry is "
             "per-run; rerun the point of interest without --sweep)");
    const bool ok =
        ParseSketchSpec(flags.Get("sketch", "on"), &common.sketch, &error);
    RejectIf(!ok, "invalid --sketch spec: " + error);
  }
  RejectIf(flags.Has("sketch-out") && !flags.Has("sketch"),
           "--sketch-out requires --sketch");

  if (flags.Has("estimator")) {
    const std::string value = flags.Get("estimator", "oracle");
    RejectIf(value != "oracle" && value != "sketch",
             "invalid --estimator '" + value +
                 "' (expected oracle or sketch)");
    if (value == "sketch") common.estimator = EcnEstimator::kSketch;
    RejectIf(common.estimator == EcnEstimator::kSketch &&
                 !common.sketch.enabled,
             "--estimator=sketch requires --sketch");
  }

  if (flags.Has("relaxed-lanes")) {
    RejectIf(topo != "fattree", "--relaxed-lanes applies to --topo=fattree");
    RejectIf(flags.Has("sweep"),
             "--relaxed-lanes applies to single runs, not --sweep");
  }

  common.cc_mix = CcMixFromFlags(flags);
  common.buffer_policy = BufferPolicyFromFlags(flags);

  if (flags.Has("sweep")) return RunSweepMode(flags, topo, common);

  const ExperimentConfig config =
      ConfigFromFlags(flags, topo, common, /*point=*/nullptr);
  const std::string scheme = SchemeName(common.scheme);
  PrintBanner(Banner(topo, config, scheme, workload_name));
  if (flags.Has("relaxed-lanes")) {
    // One lane is the plain serial run. The mode's other restrictions
    // (scenario / trace / sketch / the k+1 lane bound) live in RunFatTree
    // and exit 2 on violation.
    const auto lanes =
        static_cast<std::size_t>(flags.GetU64("relaxed-lanes", 2));
    if (lanes < 2) {
      FatalConfigError("relaxed-lanes needs >= 2 lanes, got " +
                       std::to_string(lanes));
    }
    PrintFctResult(
        RunFatTree(std::get<FatTreeExperimentConfig>(config), lanes));
    return 0;
  }

  const ExperimentOutcome outcome =
      common.scenario.empty()
          ? RunExperiment(config)
          : RunSingleViaRunner(flags, common.scheme, config);
  std::shared_ptr<const TraceRecorder> recorded;
  std::shared_ptr<const SketchTelemetry> telemetry;
  if (const auto* r = std::get_if<IncastResult>(&outcome)) {
    PrintIncastResult(*r);
    recorded = r->trace;
    telemetry = r->sketch;
  } else {
    const auto& fct = std::get<ExperimentResult>(outcome);
    PrintFctResult(fct);
    recorded = fct.trace;
    telemetry = fct.sketch;
  }
  if (common.trace.enabled) ExportTraceOrDie(flags, recorded);
  if (common.sketch.enabled) ExportSketchOrDie(flags, telemetry);
  return 0;
}

// ecnsharp_cli — run any experiment from the command line.
//
//   ecnsharp_cli --topo=dumbbell --scheme=ecn-sharp --workload=websearch
//                --load=0.6 --flows=1000 --variation=3 --seed=1
//   ecnsharp_cli --topo=leafspine --scheme=dctcp-red-tail --load=0.4
//   ecnsharp_cli --topo=incast --scheme=codel --fanout=100
//   ecnsharp_cli --sweep=load:10..90:10 --jobs=8 --flows=2000
//
// Prints the experiment's FCT breakdown (and, for a run with an incast
// burst, its burst view) as a table; --topo=incast runs the §5.4 preset
// dumbbell (IncastDumbbell). With --sweep, runs the whole grid through the
// parallel runner and also exports results/<name>.json. Run with --help for
// all options.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
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

// Decimal digits only: strtoull would wrap " -1" to 2^64 - 1.
std::uint64_t ParseU64OrDie(const std::string& key, const std::string& value) {
  const char* last = value.data() + value.size();
  std::uint64_t parsed = 0;
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  if (value.empty() || end != last || ec != std::errc()) {
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
// (a value starting with '{'). Any read or parse failure is fatal: a
// silently-ignored scenario would make "static" results look dynamic.
Json ScenarioFlag(const std::string& value) {
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
  Json script;
  std::string error;
  if (!Json::Parse(text, &script, &error)) {
    std::fprintf(stderr, "invalid --scenario script: %s\n", error.c_str());
    std::exit(2);
  }
  return script;
}

// --- The flag table ---------------------------------------------------------
// Each experiment flag sets one key of the config record
// (harness/config_json.h), whose reader checks its range and builds the
// config. Flags without a key are the CLI's own.

// The topologies a flag applies to, one bit per --topo name.
enum : unsigned {
  kDumbbell = 1,
  kLeafSpine = 2,
  kFatTree = 4,
  kInterDc = 8,
  kIncast = 16,
  kFabrics = 15,
  kAll = 31,
};
constexpr const char* kTopoNames[] = {"dumbbell", "leafspine", "fattree",
                                      "interdc", "incast"};

// A flag's text as its record value, `scale` record units per flag unit:
// a whole number when it is decimal digits (and scaled still fits 64 bits),
// a number when strtod reads all of it, else the text. The key's codec
// checks the value and names the key when it refuses it.
Json FlagValue(const std::string& text, std::uint64_t scale) {
  const char* last = text.data() + text.size();
  std::uint64_t n = 0;
  const auto whole = std::from_chars(text.data(), last, n);
  if (!text.empty() && whole.ptr == last && whole.ec == std::errc() &&
      n <= std::numeric_limits<std::uint64_t>::max() / scale) {
    return Json::UInt(n * scale);
  }
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(text.c_str(), &end);
  if (end != text.c_str() && *end == '\0' && errno != ERANGE) {
    return Json::Num(d * static_cast<double>(scale));
  }
  return Json::Str(text);
}

// Lowers the text of a flag that is not a record value.
using Lower = Json (*)(const std::string& value);

Json SimParams(const std::string&) { return ToJson(SimulationSchemeParams()); }
// --scheme spells a scheme's record name in lower case with '#' as
// "-sharp". Other values go on to the reader, which lists the schemes.
Json SchemeFlag(const std::string& value) {
  for (const Scheme scheme : kAllSchemes) {
    std::string spelling;
    for (const char* c = SchemeName(scheme); *c != '\0'; ++c) {
      const auto lower =
          static_cast<char>(std::tolower(static_cast<unsigned char>(*c)));
      spelling += *c == '#' ? std::string("-sharp") : std::string(1, lower);
    }
    if (spelling == value) return Json::Str(SchemeName(scheme));
  }
  return Json::Str(value);
}
Json SketchFlag(const std::string& value) {
  SketchConfig sketch;
  std::string error;
  if (!SketchConfigFromSpec(value, &sketch, &error)) {
    std::fprintf(stderr, "invalid --sketch spec: %s\n", error.c_str());
    std::exit(2);
  }
  return ToJson(sketch);
}

// How --sweep sets a flag's key: not at all, to a point's value, to a
// whole-number point, or to a point in percent (--sweep=load:10..90:10).
enum class Sweep { kNo, kReal, kWhole, kPercent };

constexpr std::uint64_t kGbps = 1'000'000'000;  // bps per Gbit/s
constexpr std::uint64_t kKib = 1024;

struct FlagRow {
  const char* flag;
  const char* help;  // "=<arg>  what it sets", for --help
  unsigned topos;
  const char* key = nullptr;  // dotted when nested
  Lower lower = nullptr;      // else FlagValue
  std::uint64_t scale = 1;    // record units per flag unit
  Sweep sweep = Sweep::kNo;
  // Lowered on `fallback_topos` when the flag is absent: the CLI's defaults
  // where they differ from the library's.
  const char* fallback = nullptr;
  unsigned fallback_topos = 0;
};

const FlagRow kFlags[] = {
    {"help", "  this text", kAll},
    {"topo", "=<name>  dumbbell (default), leafspine, fattree, interdc or "
             "incast", kAll},
    {"topology", "=<name>  as --topo, and overrides it", kFabrics},
    {"scheme", "=<name>  ecn-sharp (default), ecn-sharp-tofino, "
               "dctcp-red-tail,\n      dctcp-red-avg, codel, tcn, pie, "
               "droptail, ecn-sharp-inst-only,\n      ecn-sharp-pst-only",
     kAll, "scheme", SchemeFlag},
    {"workload", "=websearch|datamining  flow sizes (default websearch)",
     kFabrics, "workload"},
    {"load", "=<load>  offered load, > 0 (default 0.5)", kFabrics, "load",
     nullptr, 1, Sweep::kPercent},
    {"flows", "=<n>  flow count (default 1000)", kFabrics, "flows", nullptr, 1,
     Sweep::kWhole, "1000", kFabrics},
    {"seed", "=<n>  RNG seed (default 1)", kAll, "seed", nullptr, 1,
     Sweep::kWhole},
    {"variation", "=<k>  RTT variation factor, >= 1 (default 3)", kDumbbell,
     "rtt_variation", nullptr, 1, Sweep::kReal},
    {"fanout", "=<n>  query flows (default 100)", kIncast, "query_flows",
     nullptr, 1, Sweep::kWhole},
    {"sim-params", "  the paper's simulation parameters (§5.3; the fabrics "
                   "always run them)",
     kDumbbell, "params", SimParams, 1, Sweep::kNo, "1", kLeafSpine},
    {"k", "=<even n >= 4>  arity, k^3/4 hosts (default 8)", kFatTree, "k"},
    {"rate-gbps", "=<g>  link rate (default 10)", kFatTree, "rate_bps",
     nullptr, kGbps},
    {"host-delay-us", "=<us>  host<->edge hop delay (default 10)", kFatTree,
     "host_link_delay_us"},
    {"fabric-delay-us", "=<us>  switch<->switch hop delay (default 10)",
     kFatTree, "fabric_link_delay_us"},
    {"inter-workload", "=websearch|datamining  cross-border flow sizes "
                       "(default datamining)",
     kInterDc, "inter_workload"},
    {"inter-fraction", "=<0..1>  share of flows crossing the border "
                       "(default 0.1)",
     kInterDc, "inter_fraction"},
    {"border-links", "=<n >= 1>  parallel border links (default 1)", kInterDc,
     "border_links"},
    {"border-gbps", "=<g>  rate of each border link (default 10)", kInterDc,
     "border_rate_bps", nullptr, kGbps},
    {"border-rtt-us", "=<us>  extra round trip of each border link, in "
                      "[0, 1e7] (default 2000)",
     kInterDc, "border_rtt_us", nullptr, 1, Sweep::kNo, "2000", kInterDc},
    {"scenario", "=<file.json|{inline}>  mid-run dynamics script (see "
                 "docs/extending.md);\n      such single runs also export "
                 "results/<name>.json",
     kFabrics, "scenario", ScenarioFlag},
    {"cc-mix", "=<0..1>  share of flows driven by CUBIC (default 0)",
     kFabrics, "cc_mix"},
    {"buffer-policy", "=static|dt|dt-headroom  shared buffer per switch chip "
                      "(default: none)",
     kFabrics, "buffer_policy.kind"},
    {"buffer-kb", "=<kb>  pool per chip (default: queues x per-port buffer)",
     kFabrics, "buffer_policy.total_bytes", nullptr, kKib},
    {"alpha", "=<a>  dynamic-threshold alpha (default 1)", kFabrics,
     "buffer_policy.alpha"},
    {"estimator", "=oracle|sketch  source of scenario ECN# re-estimation "
                  "(default oracle)",
     kFabrics, "estimator"},
    {"sketch", "=<spec>  sketch telemetry of a single run: 'on' or mem:<kb>,"
               "\n      depth:<d>, epoch:<us>, window:<n>, decay:<pct>, "
               "hh:<k>, exact:on|off",
     kAll, "sketch", SketchFlag},
    {"sketch-out", "=<path>  telemetry file (default "
                   "results/<name>_sketch.json)",
     kAll},
    {"trace", "=<spec>  tracing of a single run: 'on' or events:<n>, "
              "points:<n>,\n      queue:on|off, flows:on|off (see "
              "docs/observability.md)",
     kAll},
    {"trace-out", "=<path>  trace file (default results/<name>_trace.json; "
                  "a .csv\n      suffix writes the flat event table)",
     kAll},
    {"relaxed-lanes", "=<n>  run pods on n lane threads, 2 <= n <= k+1: "
                      "deterministic,\n      but not byte-comparable with "
                      "the serial run",
     kFatTree},
    {"sweep", "=<param:lo..hi:step[,...]>  run a grid of load (in percent), "
              "flows,\n      variation, fanout or seed, e.g. "
              "load:10..90:10",
     kAll},
    {"jobs", "=<n>  --sweep worker threads (default $ECNSHARP_JOBS or 1)",
     kAll},
    {"name", "=<name>  results/<name>.json (default cli_sweep, or cli_run)",
     kAll},
};

const FlagRow* FindFlag(const std::string& flag) {
  for (const FlagRow& row : kFlags) {
    if (flag == row.flag) return &row;
  }
  return nullptr;
}

// "dumbbell, leafspine, fattree or interdc".
std::string TopoList(unsigned topos) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < std::size(kTopoNames); ++i) {
    if ((topos >> i) & 1u) names.push_back(kTopoNames[i]);
  }
  std::string list = names[0];
  for (std::size_t i = 1; i < names.size(); ++i) {
    list += (i + 1 == names.size() ? " or " : ", ") + names[i];
  }
  return list;
}

int Usage() {
  std::printf("ecnsharp_cli — run an ECN# experiment\n\n");
  for (const FlagRow& row : kFlags) {
    std::printf("  --%s%s\n", row.flag, row.help);
    if (row.topos != kAll) {
      std::printf("      --topo=%s only\n", TopoList(row.topos).c_str());
    }
  }
  std::printf("\nUnknown flags, and flags the topology does not take, exit "
              "2.\n");
  return 0;
}

// Sets a dotted `key` ("buffer_policy.alpha") of `record`.
void SetKey(Json& record, const std::string& key, Json value) {
  const std::size_t dot = key.find('.');
  if (dot == std::string::npos) {
    record.Set(key, std::move(value));
    return;
  }
  const std::string head = key.substr(0, dot);
  Json inner = record.Find(head) != nullptr ? *record.Find(head) : Json();
  SetKey(inner, key.substr(dot + 1), std::move(value));
  record.Set(head, std::move(inner));
}

// The config `record` describes; else exits 2 naming the flag that set the
// refused key (`context` prefixes the message when set).
ExperimentConfig ConfigOrDie(const Flags& flags, const Json& record,
                             const std::string& context = "") {
  ExperimentConfig config;
  std::string error;
  if (ExperimentConfigFromJson(record, &config, &error)) return config;
  const std::string path = error.substr(0, error.find(' '));
  const FlagRow* setter = nullptr;
  for (const FlagRow& row : kFlags) {
    const std::size_t n = row.key == nullptr ? 0 : std::strlen(row.key);
    if (n != 0 && path.compare(0, n, row.key) == 0 &&
        (path.size() == n || path[n] == '.' || path[n] == '[')) {
      setter = &row;
    }
  }
  if (!context.empty()) {
    std::fprintf(stderr, "%s: %s\n", context.c_str(), error.c_str());
  } else if (setter != nullptr && flags.Has(setter->flag)) {
    std::fprintf(stderr, "invalid value for --%s: '%s' (%s)\n", setter->flag,
                 flags.Get(setter->flag, "").c_str(), error.c_str());
  } else if (setter != nullptr) {
    std::fprintf(stderr, "config error: %s (see --%s)\n", error.c_str(),
                 setter->flag);
  } else {
    std::fprintf(stderr, "config error: %s\n", error.c_str());
  }
  std::exit(2);
}

// The shared fields of any config.
const ExperimentCommon& CommonOf(const ExperimentConfig& config) {
  return std::visit(
      [](const auto& c) -> const ExperimentCommon& { return c; }, config);
}

void PrintResult(const ExperimentResult& r) {
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
  if (r.incast_bursts != 0) row("burst flows", r.burst_fct);
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
  if (r.incast_bursts != 0) {
    std::printf("burst: drops %llu",
                static_cast<unsigned long long>(r.burst_drops));
    if (!r.burst_queue_trace.empty()) {
      std::printf("  standing queue %.1f pkts  peak %u pkts",
                  r.standing_queue_packets, r.burst_max_queue_packets);
    }
    std::printf("\n");
  }
}

// Scenario runs go through the runner so the full record (config + scenario
// + dynamics counters) lands in results/<name>.json, byte-identical to what
// a sweep over the same point would export.
ExperimentResult RunSingleViaRunner(const Flags& flags,
                                    const ExperimentConfig& config) {
  std::vector<runner::JobResult> results = runner::RunSweep(
      flags.Get("name", "cli_run"),
      {{std::string(SchemeName(CommonOf(config).scheme)), config}});
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

// Largest --sweep grid, and the largest swept seed/flows/fanout (every
// whole number up to 2^53 is exact as a double).
constexpr double kMaxSweepPoints = 10000;
constexpr double kMaxWhole = 9007199254740992.0;

// One swept parameter: `load:10..90:10` expands to {10, 20, ..., 90}.
struct SweepAxis {
  std::string param;
  const FlagRow* row;
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
  axis.row = FindFlag(axis.param);
  if (axis.row == nullptr || axis.row->sweep == Sweep::kNo) {
    SweepError(spec, "unknown parameter");
  }

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
  // The record reader checks each point's range.
  double v = start;
  for (std::size_t i = 0; i < count; ++i, v += step) {
    if (axis.row->sweep == Sweep::kWhole &&
        !(v >= 0 && v <= kMaxWhole && v == std::floor(v))) {
      SweepError(spec, "seed, flows and fanout must be whole numbers in "
                       "[0, 2^53]");
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
  Json record;       // the base record with the point's keys set
};

std::vector<GridPoint> ExpandGrid(const std::vector<SweepAxis>& axes,
                                  const Json& base) {
  std::vector<GridPoint> points = {{"", base}};
  for (const SweepAxis& axis : axes) {
    std::vector<GridPoint> next;
    for (const GridPoint& from : points) {
      for (const double v : axis.values) {
        GridPoint point = from;
        if (!point.name.empty()) point.name += ",";
        point.name += axis.param + "=" + FmtValue(v);
        SetKey(point.record, axis.row->key,
               axis.row->sweep == Sweep::kWhole
                   ? Json::UInt(static_cast<std::uint64_t>(v))
                   : Json::Num(axis.row->sweep == Sweep::kPercent ? v / 100
                                                                  : v));
        next.push_back(std::move(point));
      }
    }
    points = std::move(next);
  }
  return points;
}

int RunSweepMode(const Flags& flags, const std::string& topo, unsigned topo_bit,
                 const Json& base) {
  const std::vector<SweepAxis> axes = ParseSweep(flags.Get("sweep", ""));
  for (const SweepAxis& axis : axes) {
    if ((axis.row->topos & topo_bit) == 0) {
      std::fprintf(stderr, "--sweep param '%s' does not apply to --topo=%s\n",
                   axis.param.c_str(), topo.c_str());
      return 2;
    }
  }

  std::vector<runner::JobSpec> specs;
  for (const GridPoint& point : ExpandGrid(axes, base)) {
    const std::string context = "invalid --sweep point '" + point.name + "'";
    specs.push_back({point.name, ConfigOrDie(flags, point.record, context)});
  }

  const std::string name = flags.Get("name", "cli_sweep");
  runner::SweepOptions options;
  options.jobs = static_cast<std::size_t>(flags.GetU64("jobs", 0));
  PrintBanner("sweep / " + topo + " / " +
              SchemeName(CommonOf(specs[0].config).scheme) + " — " +
              std::to_string(specs.size()) + " jobs");
  const std::vector<runner::JobResult> results =
      runner::RunSweep(name, specs, options);

  TablePrinter table({"point", "overall avg(us)", "short avg(us)",
                      "short p99(us)", "large avg(us)", "timeouts"});
  for (const runner::JobResult& job : results) {
    const ExperimentResult& r = job.result;
    table.AddRow({job.name, TablePrinter::Fmt(r.overall.avg_us, 1),
                  TablePrinter::Fmt(r.short_flows.avg_us, 1),
                  TablePrinter::Fmt(r.short_flows.p99_us, 1),
                  TablePrinter::Fmt(r.large_flows.avg_us, 1),
                  std::to_string(r.timeouts)});
  }
  table.Print();
  return 0;
}

// Banner of a single run: topology (with its headline dimension), scheme,
// and workload (none for a burst-only run such as --topo=incast).
std::string Banner(const std::string& topo, const ExperimentConfig& config) {
  const ExperimentCommon& common = CommonOf(config);
  const std::string scheme = SchemeName(common.scheme);
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
  return shape + " / " + scheme + " / " +
         (common.flows == 0 ? "no workload" : WorkloadName(common.workload));
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

  // --topology overrides --topo, and its row keeps it off incast, so
  // scripts composing `--scenario` never land there.
  const std::string topo =
      flags.Get("topology", flags.Get("topo", "dumbbell"));
  const auto* named = std::find(std::begin(kTopoNames), std::end(kTopoNames),
                                std::string_view(topo));
  RejectIf(named == std::end(kTopoNames),
           "unknown topology '" + topo + "' (see --help)");
  const unsigned topo_bit = 1u << (named - std::begin(kTopoNames));
  for (const auto& [flag, value] : flags.values) {
    const FlagRow* row = FindFlag(flag);
    RejectIf(row == nullptr, "unknown flag --" + flag + " (see --help)");
    RejectIf((row->topos & topo_bit) == 0,
             "--" + flag + " applies to --topo=" + TopoList(row->topos));
  }

  // The record the flags describe: the given flags, then the CLI's own
  // defaults on the keys no flag set.
  Json record = Json::Object().Set("topology", Json::Str(topo));
  for (const FlagRow& row : kFlags) {
    if (row.key == nullptr) continue;
    const bool given = flags.Has(row.flag);
    if (!given && (row.fallback_topos & topo_bit) == 0) continue;
    const std::string text = given ? flags.Get(row.flag, "") : row.fallback;
    SetKey(record, row.key,
           row.lower != nullptr ? row.lower(text) : FlagValue(text, row.scale));
  }

  // Tracing observes a run without changing it, so it stays off the record.
  TraceConfig trace;
  if (flags.Has("trace")) {
    RejectIf(flags.Has("sweep"),
             "--trace applies to single runs, not --sweep (traces are "
             "per-run; rerun the point of interest without --sweep)");
    // Read first: the message must see the error the reader fills.
    std::string error;
    const bool read = TraceConfigFromSpec(flags.Get("trace", "on"), &trace,
                                          &error);
    RejectIf(!read, "invalid --trace spec: " + error);
  }
  RejectIf(flags.Has("trace-out") && !flags.Has("trace"),
           "--trace-out requires --trace");
  RejectIf(flags.Has("sketch") && flags.Has("sweep"),
           "--sketch applies to single runs, not --sweep (telemetry is "
           "per-run; rerun the point of interest without --sweep)");
  RejectIf(flags.Has("sketch-out") && !flags.Has("sketch"),
           "--sketch-out requires --sketch");
  RejectIf(flags.Has("relaxed-lanes") && flags.Has("sweep"),
           "--relaxed-lanes applies to single runs, not --sweep");
  RejectIf(flags.Has("jobs") && !flags.Has("sweep"),
           "--jobs applies to --sweep only (a single run is one job)");

  if (flags.Has("sweep")) return RunSweepMode(flags, topo, topo_bit, record);

  ExperimentConfig config = ConfigOrDie(flags, record);
  std::visit([&trace](auto& c) { c.trace = trace; }, config);
  PrintBanner(Banner(topo, config));
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
    PrintResult(RunFatTree(std::get<FatTreeExperimentConfig>(config), lanes));
    return 0;
  }

  const ExperimentResult result =
      CommonOf(config).scenario.empty()
          ? RunExperiment(config)
          : RunSingleViaRunner(flags, config);
  PrintResult(result);
  if (trace.enabled) ExportTraceOrDie(flags, result.trace);
  if (flags.Has("sketch")) ExportSketchOrDie(flags, result.sketch);
  return 0;
}

#include "harness/config_json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "harness/schemes.h"
#include "workload/empirical_cdf.h"

namespace ecnsharp {

namespace {

// ---------------------------------------------------------------------------
// Codecs: how a C++ value is spelt in a record and the range it must lie in.
// Write returns the JSON value. Read stores a JSON value into *out and
// returns "" or why it refused: " must ..." about the value itself, or the
// path of the refused key inside it ("alpha must ...").
// ---------------------------------------------------------------------------

std::string Show(const Json& v) {
  if (v.IsObject()) return "an object";
  if (v.IsArray()) return "an array";
  const double d = v.AsDouble();
  if (v.IsNumber() && !std::isfinite(d)) {
    return std::isnan(d) ? "nan" : d > 0 ? "inf" : "-inf";
  }
  std::string text = v.Dump();
  text.pop_back();  // Dump() ends a document with a newline
  return text;
}

// Prefixes a refusal with the key it was read from.
std::string Nest(const std::string& key, const std::string& why) {
  if (why.empty()) return why;
  return key + (why[0] == ' ' || why[0] == '[' ? "" : ".") + why;
}

template <typename T>
Json Record(const T& value);
template <typename T>
std::string ReadRecord(const Json& json, T* out,
                       const char* also_known = nullptr,
                       bool by_alias = false);

constexpr double kInf = std::numeric_limits<double>::infinity();

// Integers in [lo, hi] (and within T) that are multiples of `step`.
struct Whole {
  double lo = 0;
  double hi = kInf;
  std::uint64_t step = 1;

  template <typename T>
  Json Write(T v) const {
    if constexpr (std::is_signed_v<T>) return Json::Int(v);
    return Json::UInt(v);
  }
  template <typename T>
  std::string Read(const Json& v, T* out) const {
    using Limits = std::numeric_limits<T>;
    const double top = std::min(hi, static_cast<double>(Limits::max()));
    const double bottom = std::max(lo, static_cast<double>(Limits::min()));
    const double d = v.AsDouble();
    // Exact for written integers; a fractional spelling only below 2^53.
    if (!v.IsNumber() || d != std::floor(d) || d < bottom || d > top ||
        (!v.IsInteger() && !(std::fabs(d) < 0x1p53)) ||
        (d < 0 ? v.AsInt() : v.AsUInt()) % step != 0) {
      const std::string low = lo >= static_cast<double>(Limits::min())
                                  ? Show(Json::Num(lo))
                                  : std::to_string(Limits::min());
      const std::string high = hi <= static_cast<double>(Limits::max())
                                   ? Show(Json::Num(hi))
                                   : std::to_string(Limits::max());
      return std::string(step == 2 ? " must be an even" : " must be a whole") +
             " number in [" + low + ", " + high + "], got " + Show(v);
    }
    *out = d < 0 ? static_cast<T>(v.AsInt()) : static_cast<T>(v.AsUInt());
    return "";
  }
};

// Time keeps 2^62 ns of headroom below int64 so sums of delays cannot wrap.
constexpr double kMaxUs = 0x1p62 / 1e3;
constexpr double kMaxBps = DataRate::kMaxGbps * 1e9;

// Finite numbers from lo (excluded when `open`) to hi, read into a double,
// a Time (in us, below 2^62 ns) or a DataRate (in bps, in [1, 1e15],
// rounded to the nearest bps).
struct Real {
  double lo = 0;
  double hi = kInf;
  bool open = false;

  Json Write(double v) const { return Json::Num(v); }
  Json Write(Time t) const { return Json::Num(t.ToMicroseconds()); }
  Json Write(DataRate r) const { return Json::Int(r.bps()); }
  template <typename T>
  std::string Read(const Json& v, T* out) const {
    constexpr bool kTime = std::is_same_v<T, Time>;
    constexpr bool kRate = std::is_same_v<T, DataRate>;
    const double top = kTime ? std::min(hi, kMaxUs) : kRate ? kMaxBps : hi;
    const double bottom = kRate ? 1 : lo;
    const double d = v.AsDouble();
    if (!v.IsNumber() || !std::isfinite(d) ||
        (open ? d <= bottom : d < bottom) || d > top || d == kMaxUs) {
      std::string why = " must ";
      why += top == kInf || top == kMaxUs
                 ? std::string("be ") + (open ? "> " : ">= ") +
                       Show(Json::Num(bottom))
                 : std::string("lie in ") + (open ? "(" : "[") +
                       Show(Json::Num(bottom)) + ", " + Show(Json::Num(top)) +
                       "]";
      why += top == kMaxUs ? " us and below 2^62 ns"
             : kTime       ? " us"
             : kRate       ? " bps"
             : top == kInf ? " and finite"
                           : "";
      return why + ", got " + Show(v);
    }
    if constexpr (kTime) {
      *out = Time::FromMicroseconds(d);
    } else if constexpr (kRate) {
      *out = DataRate::BitsPerSecond(static_cast<std::int64_t>(d + 0.5));
    } else {
      *out = d;
    }
    return "";
  }
};

struct Flag {
  Json Write(bool b) const { return Json::Bool(b); }
  std::string Read(const Json& v, bool* out) const {
    if (!v.IsBool()) return " must be true or false, got " + Show(v);
    *out = v.AsBool();
    return "";
  }
};

// An enum (or a built-in workload) by name. A value outside `names` is
// written as `other`, which Read refuses with the reason `unreadable`.
template <typename E>
struct Names {
  std::vector<std::pair<E, const char*>> names;
  const char* other = "?";
  const char* unreadable = nullptr;

  Json Write(E e) const {
    for (const auto& [value, name] : names) {
      if (value == e) return Json::Str(name);
    }
    return Json::Str(other);
  }
  std::string Read(const Json& v, E* out) const {
    std::string why = " must be one of ";
    for (const auto& [value, name] : names) {
      if (v.IsString() && v.AsString() == name) {
        *out = value;
        return "";
      }
      why += name + std::string(", ");
    }
    why += "got " + Show(v);
    if (unreadable != nullptr && v.AsString() == other) {
      why += std::string(" (") + unreadable + ")";
    }
    return why;
  }
};

// A nested struct, as the record of its own table.
struct Sub {
  template <typename T>
  Json Write(const T& v) const {
    return Record(v);
  }
  template <typename T>
  std::string Read(const Json& v, T* out) const {
    return ReadRecord(v, out);
  }
};

// An array whose elements each use the codec `Each`.
template <typename Each>
struct List {
  Each each;

  template <typename T>
  Json Write(const std::vector<T>& items) const {
    Json array = Json::Array();
    for (const T& item : items) array.Push(each.Write(item));
    return array;
  }
  template <typename T>
  std::string Read(const Json& v, std::vector<T>* out) const {
    if (!v.IsArray()) return " must be an array, got " + Show(v);
    std::vector<T> items(v.items().size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string why = each.Read(v.items()[i], &items[i]);
      if (!why.empty()) return Nest("[" + std::to_string(i) + "]", why);
    }
    *out = std::move(items);
    return "";
  }
};

constexpr Real kPositive{.open = true};
constexpr Real kShare{.hi = 1};

const Names<Scheme> kSchemes = [] {
  Names<Scheme> all;
  for (const Scheme scheme : kAllSchemes) {
    all.names.emplace_back(scheme, SchemeName(scheme));
  }
  return all;
}();
const Names<ScenarioActionKind> kActionKinds = [] {
  Names<ScenarioActionKind> all;
  for (int i = 0;
       i <= static_cast<int>(ScenarioActionKind::kReestimateEcnSharp); ++i) {
    const auto kind = static_cast<ScenarioActionKind>(i);
    all.names.emplace_back(kind, ScenarioActionKindName(kind));
  }
  return all;
}();
const Names<EcnMode> kEcnModes{{{EcnMode::kDctcp, "dctcp"},
                                {EcnMode::kClassic, "classic"},
                                {EcnMode::kNone, "none"}}};
const Names<CcKind> kCcKinds{
    {{CcKind::kNewReno, "newreno"}, {CcKind::kCubic, "cubic"}}};
const Names<EcnEstimator> kEstimators{
    {{EcnEstimator::kOracle, "oracle"}, {EcnEstimator::kSketch, "sketch"}}};
// A buffer_policy record names a pool; "none" is the record left out.
const Names<BufferPolicyKind> kPolicyKinds = [] {
  Names<BufferPolicyKind> all;
  for (const BufferPolicyKind kind :
       {BufferPolicyKind::kStatic, BufferPolicyKind::kDynamicThreshold,
        BufferPolicyKind::kDtHeadroom}) {
    all.names.emplace_back(kind, BufferPolicyKindName(kind));
  }
  return all;
}();
const Names<RttProfile> kRttProfiles{{{RttProfile::kTestbed, "testbed"},
                                      {RttProfile::kLeafSpine, "leaf_spine"}}};
const Names<ComposedSideConfig::Kind> kSideKinds{
    {{ComposedSideConfig::Kind::kLeafSpine, "leafspine"},
     {ComposedSideConfig::Kind::kFatTree, "fattree"}}};

// Function-local: the workload CDFs are themselves function statics.
const Names<const EmpiricalCdf*>& Workloads() {
  static const Names<const EmpiricalCdf*> names{
      {{&WebSearchWorkload(), "websearch"},
       {&DataMiningWorkload(), "datamining"}},
      "custom",
      "a custom workload's CDF is not in the record"};
  return names;
}

// ---------------------------------------------------------------------------
// The walkers. A table is a Keys(v, config) overload that visits every key
// of one struct once, in record order: v(key, member, codec[, presence]).
// The same walk writes a record (Writer) and reads one (Reader), or reads a
// spec string's terms by their aliases.
// ---------------------------------------------------------------------------

// A record key, and the alias a --trace or --sketch spec sets it by. A spec
// value is `per` times the record's (decay:70 is "decay": 70 / 100.0).
struct Key {
  Key(const char* name) : name(name) {}  // a key without an alias
  Key(const char* name, const char* alias, double per = 1)
      : name(name), alias(alias), per(per) {}

  const char* name;
  const char* alias = nullptr;
  double per = 1;
};

// How a key is written: always, only off the default config's value (so a
// new key leaves every earlier record as it was), or not at all. A
// kRequired key is written always and must be present to read.
enum class Presence { kAlways, kSparse, kOmitted, kRequired };

constexpr Presence When(bool present) {
  return present ? Presence::kAlways : Presence::kOmitted;
}

class Writer {
 public:
  // `defaults` is the default config's record; null writes every kSparse key.
  explicit Writer(const Json* defaults) : defaults_(defaults) {}

  template <typename T, typename Codec>
  void operator()(Key key, const T& value, const Codec& codec,
                  Presence presence = Presence::kAlways) {
    if (presence == Presence::kOmitted) return;
    Json json = codec.Write(value);
    const Json* base =
        defaults_ == nullptr ? nullptr : defaults_->Find(key.name);
    if (presence != Presence::kSparse || base == nullptr ||
        base->Dump() != json.Dump()) {
      record_.Set(key.name, std::move(json));
    }
  }

  const Json& record() const { return record_; }

 private:
  const Json* defaults_;
  Json record_ = Json::Object();
};

// Reads a record as overrides of the config the walk starts from; with
// `by_alias`, a spec's overlay, whose keys are the aliases.
class Reader {
 public:
  Reader(const Json& record, const char* also_known, bool by_alias)
      : record_(record), by_alias_(by_alias) {
    if (also_known != nullptr) known_.push_back(also_known);
  }

  template <typename T, typename Codec>
  void operator()(Key key, T& value, const Codec& codec,
                  Presence presence = Presence::kAlways) {
    const char* name = by_alias_ ? key.alias : key.name;
    if (name == nullptr) return;
    known_.push_back(name);
    const Json* json = record_.Find(name);
    if (!why_.empty()) return;
    if (json != nullptr && by_alias_ && key.per != 1 && json->IsNumber()) {
      const std::string why =
          codec.Read(Json::Num(json->AsDouble() / key.per), &value);
      if (!why.empty()) {
        why_ = Nest(name, why) + " (" + name + ":" + Show(*json) + " / " +
               Show(Json::Num(key.per)) + ")";
      }
    } else if (json != nullptr) {
      why_ = Nest(name, codec.Read(*json, &value));
    } else if (presence == Presence::kRequired && record_.IsObject()) {
      why_ = std::string(name) + " is required";
    }
  }

  // "" once every key of the record has been read, else why not.
  std::string Finish() const {
    if (!record_.IsObject()) return " must be an object, got " + Show(record_);
    if (!why_.empty()) return why_;
    for (const auto& [key, value] : record_.members()) {
      if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
        return key + " is not a known key";
      }
    }
    return "";
  }

 private:
  const Json& record_;
  bool by_alias_;
  std::vector<std::string> known_;
  std::string why_;
};

// ---------------------------------------------------------------------------
// The tables. Unmarked Real/Whole keys take any finite value >= 0 (times
// below 2^62 ns, rates in [1, 1e15] bps).
// ---------------------------------------------------------------------------

constexpr Presence kNew = Presence::kSparse;

template <typename V>
void Keys(V& v, SchemeParams& p) {
  v("red_tail_threshold_bytes", p.red_tail_threshold_bytes, Whole{});
  v("red_avg_threshold_bytes", p.red_avg_threshold_bytes, Whole{});
  v("codel_target_us", p.codel.target, Real{});
  v("codel_interval_us", p.codel.interval, Real{});
  v("tcn_threshold_us", p.tcn_threshold, Real{});
  v("pie_target_us", p.pie.target, Real{});
  v("pie_update_interval_us", p.pie.update_interval, kPositive);
  v("pie_alpha", p.pie.alpha, Real{});
  v("pie_beta", p.pie.beta, Real{});
  v("pie_min_backlog_bytes", p.pie.min_backlog_bytes, Whole{});
  v("ecn_sharp_ins_target_us", p.ecn_sharp.ins_target, Real{});
  v("ecn_sharp_pst_target_us", p.ecn_sharp.pst_target, Real{});
  v("ecn_sharp_pst_interval_us", p.ecn_sharp.pst_interval, Real{});
  v("buffer_bytes", p.buffer_bytes, Whole{});
}

template <typename V>
void Keys(V& v, TcpConfig& t) {
  v("mss", t.mss, Whole{.lo = 1});
  v("init_cwnd_segments", t.init_cwnd_segments, Whole{.lo = 1});
  v("ecn_mode", t.ecn_mode, kEcnModes);
  v("dctcp_g", t.dctcp_g, Real{.hi = 1, .open = true});
  v("min_rto_us", t.min_rto, kPositive);
  v("delayed_ack_count", t.delayed_ack_count, Whole{.lo = 1});
  v("pacing", t.pacing, Flag{});
  v("max_cwnd_bytes", t.max_cwnd_bytes, Whole{.lo = 1}, kNew);
  v("max_rto_us", t.max_rto, kPositive, kNew);
  v("dupack_threshold", t.dupack_threshold, Whole{.lo = 1}, kNew);
  v("delayed_ack_timeout_us", t.delayed_ack_timeout, kPositive, kNew);
  v("dctcp_init_alpha", t.dctcp_init_alpha, kShare, kNew);
  v("pacing_gain", t.pacing_gain, kPositive, kNew);
  v("initial_pacing_rate_bps", t.initial_pacing_rate, Real{}, kNew);
  v("cc_kind", t.cc_kind, kCcKinds, kNew);
  v("cubic_beta", t.cubic_beta, Real{.hi = 1, .open = true}, kNew);
  v("cubic_c", t.cubic_c, kPositive, kNew);
  v("cubic_fast_convergence", t.cubic_fast_convergence, Flag{}, kNew);
  v("cubic_ecn_mode", t.cubic_ecn_mode, kEcnModes, kNew);
}

template <typename V>
void Keys(V& v, BufferPolicyConfig& p) {
  v("kind", p.kind, kPolicyKinds, Presence::kRequired);
  v("total_bytes", p.total_bytes, Whole{});
  v("alpha", p.alpha, kPositive);
  v("headroom_bytes", p.headroom_bytes, Whole{});
  v("priority_alpha", p.priority_alpha, List<Real>{kPositive}, kNew);
}

// A sketch record, and the --sketch spec's aliases (decay in percent).
template <typename V>
void Keys(V& v, SketchConfig& s) {
  v({"memory_kb", "mem"}, s.memory_kb, Whole{.lo = 1, .hi = 1048576});
  v({"depth", "depth"}, s.depth, Whole{.lo = 1, .hi = 16});
  v({"epoch_us", "epoch"}, s.epoch, Real{.lo = 10, .hi = 1e7});
  v({"window_epochs", "window"}, s.window_epochs, Whole{.lo = 2, .hi = 128});
  v({"decay", "decay", 100}, s.decay, Real{.lo = 0.01, .hi = 1});
  v({"heavy_hitters", "hh"}, s.heavy_hitters, Whole{.hi = 1024});
  v({"track_exact", "exact"}, s.track_exact, Flag{});
  v("queue_alpha", s.queue_alpha, Real{.hi = 1, .open = true}, kNew);
}

// The trace file's "config" object, and the --trace spec's aliases.
template <typename V>
void Keys(V& v, TraceConfig& t) {
  constexpr Whole kCap{.lo = 1, .hi = 1 << 24};
  v({"ring_capacity", "events"}, t.ring_capacity, kCap);
  v({"queue_series", "queue"}, t.queue_series, Flag{});
  v({"flow_series", "flows"}, t.flow_series, Flag{});
  v({"max_series_points", "points"}, t.max_series_points, kCap);
}

template <typename V>
void Keys(V& v, ScenarioAction& a) {
  constexpr Real kDelayUs{.hi = kMaxUs};
  v("kind", a.kind, kActionKinds, Presence::kRequired);
  v("at_us", a.at, Real{});
  v("target", a.target, Whole{.lo = -kInf});
  v("delay_us", a.delay_us, kDelayUs);
  v("delay_hi_us", a.delay_hi_us, kDelayUs);
  v("gbps", a.gbps, Real{.hi = DataRate::kMaxGbps});
  v("drop_prob", a.drop_prob, kShare);
  v("corrupt_prob", a.corrupt_prob, kShare);
  v("flows", a.flows, Whole{});
  v("bytes", a.bytes, Whole{});
  v("bytes_hi", a.bytes_hi, Whole{}, kNew);
  v("drop_queued", a.drop_queued, Flag{});
  v("repeat", a.repeat, Whole{});
  v("period_us", a.period, Real{});
  v("jitter_us", a.jitter, Real{});
}

template <typename V>
void Keys(V& v, ScenarioScript& s) {
  v("seed", s.seed, Whole{});
  v("actions", s.actions, List<Sub>{}, Presence::kRequired);
}

// Topology shapes, shared by the standalone families and the inter-DC sides.
template <typename V>
void Dims(V& v, LeafSpineConfig& t) {
  v("spines", t.spines, Whole{.lo = 1});
  v("leaves", t.leaves, Whole{.lo = 1});
  v("hosts_per_leaf", t.hosts_per_leaf, Whole{.lo = 1});
  v("rate_bps", t.rate, Real{});
}

template <typename V>
void Dims(V& v, FatTreeConfig& t) {
  v("k", t.k, Whole{.lo = 4, .step = 2});
  v("rate_bps", t.rate, Real{});
}

template <typename V>
void Delays(V& v, LeafSpineConfig& t, Presence presence) {
  v("host_link_delay_us", t.host_link_delay, Real{}, presence);
  v("spine_link_delay_us", t.spine_link_delay, Real{}, presence);
}

template <typename V>
void Delays(V& v, FatTreeConfig& t, Presence presence) {
  v("host_link_delay_us", t.host_link_delay, Real{}, presence);
  v("fabric_link_delay_us", t.fabric_link_delay, Real{}, presence);
}

template <typename V, typename Topo>
void HostBuffer(V& v, Topo& t) {
  v("host_buffer_bytes", t.host_buffer_bytes, Whole{.lo = 1}, kNew);
}

// One side of a composed fabric: its family, then that family's keys.
template <typename V>
void Keys(V& v, ComposedSideConfig& s) {
  v("kind", s.kind, kSideKinds);
  const auto side = [&v](auto& t) {
    Dims(v, t);
    v("base_address", t.base_address, Whole{});
    v("tcp", t.tcp, Sub{});
    Delays(v, t, kNew);
    HostBuffer(v, t);
  };
  if (s.kind == ComposedSideConfig::Kind::kLeafSpine) {
    side(s.leaf_spine);
  } else {
    side(s.fat_tree);
  }
}

// The experiment fields every family shares, in record order around each
// family's own keys: Lead, the family's shape, Clock, its TCP, Extras.
template <typename V, typename C>
void Lead(V& v, C& c) {
  v("scheme", c.scheme, kSchemes);
  v("workload", c.workload, Workloads());
  if constexpr (std::is_same_v<C, InterDcExperimentConfig>) {
    v("inter_workload", c.inter_workload, Workloads());
  }
  v("load", c.load, kPositive);
  v("flows", c.flows, Whole{});
}

template <typename V, typename C>
void Clock(V& v, C& c) {
  v("seed", c.seed, Whole{});
  v("queue_sample_period_us", c.queue_sample_period, Real{});
  v("max_sim_time_us", c.max_sim_time, Real{});
}

// The parameters, then the keys recorded only when set.
template <typename V, typename C>
void Extras(V& v, C& c) {
  v("params", c.params, Sub{});
  v("scenario", c.scenario, Sub{}, When(!c.scenario.empty()));
  v("cc_mix", c.cc_mix, kShare, kNew);
  v("buffer_policy", c.buffer_policy, Sub{},
    When(c.buffer_policy.kind != BufferPolicyKind::kNone));
  v("estimator", c.estimator, kEstimators, kNew);
  v("sketch", c.sketch, Sub{}, When(c.sketch.enabled));
}

template <typename V>
void Keys(V& v, DumbbellExperimentConfig& c) {
  Lead(v, c);
  v("rtt_variation", c.rtt_variation, Real{.lo = 1});
  v("base_rtt_us", c.base_rtt, kPositive);
  v("senders", c.senders, Whole{.lo = 1});
  v("rate_bps", c.rate, Real{});
  Clock(v, c);
  v("tcp", c.tcp, Sub{});
  Extras(v, c);
  v("long_flows", c.long_flows, Whole{}, kNew);
  v("rtt_profile", c.rtt_profile, kRttProfiles, kNew);
}

template <typename V>
void Keys(V& v, LeafSpineExperimentConfig& c) {
  Lead(v, c);
  Dims(v, c.topo);
  v("max_extra_delay_us", c.max_extra_delay, Real{});
  Clock(v, c);
  v("tcp", c.topo.tcp, Sub{});
  Extras(v, c);
  Delays(v, c.topo, kNew);
  HostBuffer(v, c.topo);
  v("base_address", c.topo.base_address, Whole{}, kNew);
}

template <typename V>
void Keys(V& v, FatTreeExperimentConfig& c) {
  Lead(v, c);
  Dims(v, c.topo);
  Delays(v, c.topo, Presence::kAlways);
  v("max_extra_delay_us", c.max_extra_delay, Real{});
  Clock(v, c);
  v("tcp", c.topo.tcp, Sub{});
  Extras(v, c);
  HostBuffer(v, c.topo);
  v("base_address", c.topo.base_address, Whole{}, kNew);
}

// No "tcp": each side records its own.
template <typename V>
void Keys(V& v, InterDcExperimentConfig& c) {
  Lead(v, c);
  v("inter_fraction", c.inter_fraction, kShare);
  v("side_a", c.topo.side_a, Sub{});
  v("side_b", c.topo.side_b, Sub{});
  v("border_links", c.topo.border_links, Whole{.lo = 1});
  v("border_rate_bps", c.topo.border_rate, Real{});
  // ComposedTopology's bound: a border RTT of at most 10 s.
  v("border_rtt_us", c.topo.border_rtt, Real{.hi = 1e7});
  v("attach_delay_us", c.topo.attach_delay, Real{});
  v("inter_rtt_fraction", c.topo.inter_rtt_fraction, kShare);
  v("max_extra_delay_us", c.max_extra_delay, Real{});
  Clock(v, c);
  Extras(v, c);
  v("auto_address", c.topo.auto_address, Flag{}, kNew);
}

// "topology": "incast" records: the §5.4 preset (IncastDumbbell), with its
// burst and seed as the keys. Read into a dumbbell config; nothing writes
// them.
struct IncastPreset {
  DumbbellExperimentConfig config = IncastDumbbell(1);
};

template <typename V>
void Keys(V& v, IncastPreset& p) {
  ScenarioAction& burst = p.config.scenario.actions[0];
  v("scheme", p.config.scheme, kSchemes);
  v("query_flows", burst.flows, Whole{});
  v("query_min_bytes", burst.bytes, Whole{.lo = 1});
  v("query_max_bytes", burst.bytes_hi, Whole{.lo = 1});
  v("burst_time_us", burst.at, Real{});
  v("seed", p.config.seed, Whole{});
  v("sketch", p.config.sketch, Sub{}, When(p.config.sketch.enabled));
}

// Checks across keys, once a record has been read.
template <typename T>
std::string AfterRead(T& c) {
  if constexpr (std::is_same_v<T, SketchConfig> ||
                std::is_same_v<T, TraceConfig>) {
    c.enabled = true;  // a sketch or trace record switches it on
  } else if constexpr (std::is_same_v<T, ScenarioAction>) {
    if (c.kind == ScenarioActionKind::kSetLinkRate && !(c.gbps > 0)) {
      return "gbps must lie in (0, 1e+06] for set_link_rate";
    }
    if (c.drop_prob + c.corrupt_prob > 1) {
      return "corrupt_prob must be <= 1 - drop_prob";
    }
    if (c.repeat > 1 && !c.period.IsPositive()) {
      return "period_us must be > 0 when repeat > 1";
    }
  } else if constexpr (std::is_same_v<T, IncastPreset>) {
    const ScenarioAction& burst = c.config.scenario.actions[0];
    if (burst.bytes_hi < burst.bytes) {
      return "query_max_bytes must be >= query_min_bytes";
    }
    c.config.scenario.seed = c.config.seed;
  } else if constexpr (std::is_base_of_v<ExperimentCommon, T>) {
    // Without telemetry the session would quietly use the oracle.
    if (c.estimator == EcnEstimator::kSketch && !c.sketch.enabled) {
      return "estimator 'sketch' needs a sketch record";
    }
  }
  return "";
}

template <typename T>
Json Record(const T& value) {
  // Sparse keys compare against the default config (a side's own family).
  T defaults{};
  if constexpr (std::is_same_v<T, ComposedSideConfig>) {
    defaults.kind = value.kind;
  }
  Writer all(nullptr);
  Keys(all, defaults);
  T copy = value;
  Writer writer(&all.record());
  Keys(writer, copy);
  return writer.record();
}

template <typename T>
std::string ReadRecord(const Json& json, T* out, const char* also_known,
                       bool by_alias) {
  Reader reader(json, also_known, by_alias);
  Keys(reader, *out);
  const std::string why = reader.Finish();
  return why.empty() ? AfterRead(*out) : why;
}

// ExperimentConfig's alternatives, in order, then the incast preset.
constexpr const char* kTopologies[] = {"dumbbell", "leafspine", "fattree",
                                       "interdc", "incast"};
constexpr std::size_t kFamilies = std::variant_size_v<ExperimentConfig>;
static_assert(std::size(kTopologies) == kFamilies + 1);

// The default config of alternative `index`.
template <std::size_t... I>
ExperimentConfig FamilyDefault(std::size_t index, std::index_sequence<I...>) {
  ExperimentConfig config;
  ((index == I ? (void)config.emplace<I>() : void()), ...);
  return config;
}

bool Refuse(const std::string& why, std::string* error) {
  if (error != nullptr) *error = why;
  return false;
}

// A spec value: on, off, or a whole number in decimal digits (one past
// 2^64 - 1 reads as a double, which every whole key refuses). Other text
// stays text, which no spec key takes.
Json SpecValue(const std::string& text) {
  if (text == "on" || text == "off") return Json::Bool(text == "on");
  const char* last = text.data() + text.size();
  std::uint64_t n = 0;
  const auto whole = std::from_chars(text.data(), last, n);
  if (text.empty() || whole.ptr != last) return Json::Str(text);
  if (whole.ec == std::errc()) return Json::UInt(n);
  double d = 0;
  std::from_chars(text.data(), last, d);
  return Json::Num(d);
}

// Reads a spec, "on", "default", "1" or "alias:value[,alias:value...]",
// over `config` through its table's aliases.
template <typename T>
bool ReadSpec(const std::string& spec, T config, T* out,
              std::string* error) {
  const bool preset = spec == "on" || spec == "default" || spec == "1";
  Json overlay = Json::Object();
  for (std::size_t pos = 0; !preset && pos <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string term = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t colon = term.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == term.size()) {
      return Refuse("malformed term '" + term + "' (want key:value)", error);
    }
    const std::string key = term.substr(0, colon);
    if (overlay.Find(key) != nullptr) {
      return Refuse("duplicate key '" + key + "'", error);
    }
    overlay.Set(key, SpecValue(term.substr(colon + 1)));
  }
  const std::string why = ReadRecord(overlay, &config, nullptr, true);
  if (!why.empty()) return Refuse(why, error);
  *out = config;
  return true;
}

}  // namespace

const char* WorkloadName(const EmpiricalCdf* workload) {
  for (const auto& [cdf, name] : Workloads().names) {
    if (cdf == workload) return name;
  }
  return Workloads().other;
}

Json ToJson(const SchemeParams& params) { return Record(params); }
Json ToJson(const SketchConfig& sketch) { return Record(sketch); }
Json ToJson(const TraceConfig& trace) { return Record(trace); }
Json ToJson(const ScenarioScript& script) { return Record(script); }

bool ScenarioScriptFromJson(const Json& json, ScenarioScript* out,
                            std::string* error) {
  ScenarioScript script;
  const std::string why = ReadRecord(json, &script);
  if (!why.empty()) return Refuse(Nest("scenario", why), error);
  *out = std::move(script);
  return true;
}

bool ParseScenarioScript(const std::string& text, ScenarioScript* out,
                         std::string* error) {
  Json doc;
  if (!Json::Parse(text, &doc, error)) return false;
  return ScenarioScriptFromJson(doc, out, error);
}

bool TraceConfigFromSpec(const std::string& spec, TraceConfig* out,
                         std::string* error) {
  TraceConfig full;
  full.ring_capacity = full.max_series_points = 1u << 20;
  return spec == "full" ? ReadSpec("on", full, out, error)
                        : ReadSpec(spec, TraceConfig{}, out, error);
}

bool SketchConfigFromSpec(const std::string& spec, SketchConfig* out,
                          std::string* error) {
  return ReadSpec(spec, SketchConfig{}, out, error);
}

Json ToJson(const ExperimentConfig& config) {
  Json json = Json::Object().Set("topology",
                                 Json::Str(kTopologies[config.index()]));
  const Json record =
      std::visit([](const auto& c) { return Record(c); }, config);
  for (const auto& [key, value] : record.members()) json.Set(key, value);
  return json;
}

bool ExperimentConfigFromJson(const Json& json, ExperimentConfig* out,
                              std::string* error) {
  const Json* topology = json.Find("topology");
  const auto* family = std::find_if(
      std::begin(kTopologies), std::end(kTopologies), [topology](auto name) {
        return topology != nullptr && topology->AsString() == name;
      });
  if (family == std::end(kTopologies)) {
    return Refuse("topology must be one of dumbbell, leafspine, fattree, "
                  "interdc, incast, got " +
                      (topology == nullptr ? "nothing" : Show(*topology)),
                  error);
  }
  const auto index = static_cast<std::size_t>(family - std::begin(kTopologies));
  if (index == kFamilies) {
    IncastPreset preset;
    const std::string why = ReadRecord(json, &preset, "topology");
    if (!why.empty()) return Refuse(why, error);
    *out = std::move(preset.config);
    return true;
  }
  ExperimentConfig config =
      FamilyDefault(index, std::make_index_sequence<kFamilies>());
  const std::string why = std::visit(
      [&json](auto& c) { return ReadRecord(json, &c, "topology"); }, config);
  if (!why.empty()) return Refuse(why, error);
  *out = std::move(config);
  return true;
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
  // The burst view exists only once a burst has fired; its queue part only
  // with queue sampling on.
  if (result.incast_bursts != 0) {
    json.Set("burst_fct", ToJson(result.burst_fct))
        .Set("burst_drops", Json::UInt(result.burst_drops));
  }
  if (!result.burst_queue_trace.empty()) {
    Json trace = Json::Array();
    for (const QueueMonitor::Sample& sample : result.burst_queue_trace) {
      trace.Push(Json::Array()
                     .Push(Json::Num(sample.at.ToMicroseconds()))
                     .Push(Json::UInt(sample.packets)));
    }
    json.Set("standing_queue_packets",
             Json::Num(result.standing_queue_packets))
        .Set("burst_max_queue_packets",
             Json::UInt(result.burst_max_queue_packets))
        .Set("burst_queue_trace", std::move(trace));
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

}  // namespace ecnsharp

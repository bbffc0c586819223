// sketch_accuracy: memory-budget sweep of the sketch telemetry against
// exact ground truth, plus the end-to-end cost of driving ECN#
// re-estimation from sketches instead of the oracle.
//
// Every job replays the dyn_leafspine_churn scenario (four uplink flaps, a
// mid-run RTT shift to [160, 480] us at 15 ms, fabric-wide re-estimation at
// 17 ms, seed 42) on the quarter-scale leaf-spine fabric. The oracle
// variant re-derives thresholds from the true host-delay distribution; the
// sketch variants re-derive them from SketchTelemetry at a sweep of memory
// budgets, with the exact mirror (track_exact) recording ground truth under
// identical epoch windowing so the accuracy numbers are apples-to-apples:
//
//   * byte error: mean relative error of count-min lifetime-byte estimates
//     over the exact top-16 flows (conservative update => always >= 0),
//   * rate error: mean relative error of the decayed-window rate estimate
//     against the exact mirror's rate under the same weights,
//   * heavy-hitter recall: fraction of the exact top-16 present in the
//     sketch's heavy-hitter list,
//   * large-flow FCT delta vs the oracle variant — the acceptance bar is
//     within 15% at a 64 KB budget.
//
// Exports results/sketch_accuracy.json (ECNSHARP_RESULTS_DIR to redirect,
// ECNSHARP_NO_JSON=1 to suppress), consumed by CI's perf-smoke artifact
// upload and the EXPERIMENTS.md tables.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "dynamics/scenario.h"
#include "net/packet_pool.h"
#include "runner/json_export.h"
#include "sim/random.h"
#include "sketch/telemetry.h"

namespace {

using namespace ecnsharp;

constexpr std::size_t kTopK = 16;

ScenarioScript ChurnScript(std::size_t hosts) {
  ScenarioScript script;
  script.seed = 42;

  ScenarioAction down;
  down.kind = ScenarioActionKind::kLinkDown;
  down.at = Time::Milliseconds(10);
  down.target = -1;
  down.drop_queued = true;
  down.repeat = 4;
  down.period = Time::Milliseconds(12);
  script.actions.push_back(down);

  ScenarioAction up = down;
  up.kind = ScenarioActionKind::kLinkUp;
  up.at = down.at + Time::FromMicroseconds(600);
  script.actions.push_back(up);

  for (std::size_t h = 0; h < hosts; ++h) {
    ScenarioAction shift;
    shift.kind = ScenarioActionKind::kSetHostDelay;
    shift.target = static_cast<int>(h);
    shift.at = Time::Milliseconds(15);
    shift.delay_us = 160.0;
    shift.delay_hi_us = 480.0;
    script.actions.push_back(shift);
  }

  ScenarioAction reest;
  reest.kind = ScenarioActionKind::kReestimateEcnSharp;
  reest.at = Time::Milliseconds(17);
  script.actions.push_back(reest);
  return script;
}

struct AccuracyScore {
  std::size_t scored_flows = 0;
  // Flows of the exact top-k still active inside the final rate window;
  // rate_err_mean averages over these only (a finished flow's window rate
  // is zero on both sides and would just dilute the error).
  std::size_t rate_scored_flows = 0;
  double byte_err_mean = 0.0;   // mean relative error, lifetime bytes
  double rate_err_mean = 0.0;   // mean relative error, windowed rate
  double hh_recall = 0.0;       // exact top-k found in the sketch HH list
};

AccuracyScore ScoreAgainstExact(const SketchTelemetry& telemetry) {
  AccuracyScore score;
  const Time now = telemetry.last_update();
  const auto truth = telemetry.ExactTopFlows(kTopK);
  if (truth.empty()) return score;

  double byte_err_sum = 0.0;
  double rate_err_sum = 0.0;
  std::size_t rate_scored = 0;
  for (const auto& flow : truth) {
    const double exact_bytes =
        static_cast<double>(telemetry.ExactFlowBytes(flow.flow));
    const double est_bytes =
        static_cast<double>(telemetry.EstimateFlowBytes(flow.flow));
    byte_err_sum += std::fabs(est_bytes - exact_bytes) / exact_bytes;

    const double exact_rate = telemetry.ExactRateBps(flow.flow, now);
    if (exact_rate > 0.0) {
      const double est_rate = telemetry.EstimateRateBps(flow.flow, now);
      rate_err_sum += std::fabs(est_rate - exact_rate) / exact_rate;
      ++rate_scored;
    }
  }
  score.scored_flows = truth.size();
  score.rate_scored_flows = rate_scored;
  score.byte_err_mean = byte_err_sum / static_cast<double>(truth.size());
  score.rate_err_mean =
      rate_scored == 0 ? 0.0 : rate_err_sum / static_cast<double>(rate_scored);

  std::unordered_set<std::uint64_t> reported;
  for (const auto& hh : telemetry.HeavyHitters()) {
    reported.insert(SketchTelemetry::KeyOf(hh.flow));
  }
  std::size_t hits = 0;
  for (const auto& flow : truth) {
    if (reported.count(SketchTelemetry::KeyOf(flow.flow)) > 0) ++hits;
  }
  score.hh_recall = static_cast<double>(hits) /
                    static_cast<double>(truth.size());
  return score;
}

// Synthetic-trace accuracy: a Zipf mix of flows driven straight through the
// telemetry's port tap, every flow active for the whole trace. Unlike the
// end-to-end runs (where by trace end only the last large flow still
// occupies the rate window), this keeps hundreds of flows live in the
// window at query time, so the rate-error column is averaged over a dense
// population instead of a handful of stragglers.
struct SyntheticResult {
  std::size_t flow_sketch_bytes = 0;
  AccuracyScore score;
};

SyntheticResult SyntheticTrace(std::size_t memory_kb, std::uint64_t seed) {
  SketchConfig config;
  config.enabled = true;
  config.memory_kb = memory_kb;
  config.track_exact = true;
  SketchTelemetry telemetry(config);
  PacketTracer* tap = telemetry.PortTap(telemetry.RegisterSite("synthetic"));

  constexpr std::size_t kFlows = 512;
  constexpr std::uint64_t kPackets = 300'000;
  // Zipf(1) byte shares: flow i carries weight 1/(i+1).
  std::vector<double> cdf(kFlows);
  double total = 0.0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;

  Rng rng(seed);
  Time now = Time::Zero();
  Packet pkt;
  pkt.size_bytes = 1500;
  for (std::uint64_t p = 0; p < kPackets; ++p) {
    // 400 ns spacing: 300k packets span 120 ms = 24 default epochs, so the
    // rate window turns over many times before the query.
    now += Time::Nanoseconds(400);
    const double u = rng.Uniform();
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    pkt.flow = FlowKey{static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(1000 + i % 64),
                       static_cast<std::uint16_t>(4000 + i % 977), 80};
    tap->OnEnqueue(pkt, now, QueueSnapshot{1, pkt.size_bytes});
  }

  SyntheticResult result;
  result.flow_sketch_bytes = telemetry.FlowSketchMemoryBytes();
  result.score = ScoreAgainstExact(telemetry);
  return result;
}

}  // namespace

int main() {
  using namespace ecnsharp::bench;
  using TP = TablePrinter;

  PrintBanner(
      "Sketch accuracy: memory budget vs exact ground truth, and "
      "sketch-driven vs oracle ECN# re-estimation");
  // 800 flows matches dyn_leafspine_churn: below that the fabric is so
  // lightly loaded that re-estimation is a no-op and the FCT comparison
  // degenerates.
  const std::size_t flows = BenchFlowCount(800, 4000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  LeafSpineConfig topo;
  topo.spines = 4;
  topo.leaves = 4;
  topo.hosts_per_leaf = 8;
  const std::size_t hosts = topo.leaves * topo.hosts_per_leaf;
  std::printf("fabric: %zu spine x %zu leaf x %zu hosts/leaf\n", topo.spines,
              topo.leaves, topo.hosts_per_leaf);

  const std::vector<std::size_t> budgets_kb = {8, 16, 32, 64, 128, 256};

  // --- Part 1: synthetic Zipf trace, dense rate-error population ---------
  std::printf("\nSynthetic Zipf trace (512 flows, 300k packets):\n");
  Json synthetic_rows = Json::Array();
  TP synth_table({"budget", "flow KiB", "byte err", "rate err", "hh recall",
                  "rate flows"});
  for (const std::size_t kb : budgets_kb) {
    const SyntheticResult synth = SyntheticTrace(kb, seed);
    synth_table.AddRow(
        {std::to_string(kb) + "kb",
         TP::Fmt(static_cast<double>(synth.flow_sketch_bytes) / 1024.0, 1),
         TP::Fmt(synth.score.byte_err_mean, 4),
         synth.score.rate_scored_flows == 0
             ? "-"
             : TP::Fmt(synth.score.rate_err_mean, 4),
         TP::Fmt(synth.score.hh_recall, 2),
         std::to_string(synth.score.rate_scored_flows)});
    synthetic_rows.Push(
        Json::Object()
            .Set("memory_kb", Json::UInt(kb))
            .Set("flow_sketch_bytes", Json::UInt(synth.flow_sketch_bytes))
            .Set("byte_err_mean", Json::Num(synth.score.byte_err_mean))
            .Set("rate_scored_flows",
                 Json::UInt(synth.score.rate_scored_flows))
            .Set("rate_err_mean", Json::Num(synth.score.rate_err_mean))
            .Set("hh_recall", Json::Num(synth.score.hh_recall)));
  }
  synth_table.Print();

  // --- Part 2: end-to-end churn scenario, sketch-driven re-estimation ----

  const auto base_config = [&] {
    LeafSpineExperimentConfig config;
    config.scheme = Scheme::kEcnSharp;
    config.params = SimulationSchemeParams();
    config.load = 0.7;
    config.flows = flows;
    config.topo = topo;
    config.seed = seed;
    config.scenario = ChurnScript(hosts);
    return config;
  };

  std::vector<runner::JobSpec> specs;
  {
    // Oracle reference: thresholds re-derived from the true host-delay
    // distribution, sketches off entirely.
    LeafSpineExperimentConfig config = base_config();
    config.estimator = EcnEstimator::kOracle;
    specs.push_back({"oracle", config});
  }
  for (const std::size_t kb : budgets_kb) {
    LeafSpineExperimentConfig config = base_config();
    config.estimator = EcnEstimator::kSketch;
    config.sketch.enabled = true;
    config.sketch.memory_kb = kb;
    config.sketch.track_exact = true;
    specs.push_back({"sketch-" + std::to_string(kb) + "kb", config});
  }

  runner::SweepOptions options;
  options.label = "sketch_accuracy";
  const std::vector<runner::JobResult> sweep = runner::RunJobs(specs, options);

  const ExperimentResult& oracle = runner::FctResult(sweep[0]);

  Json rows = Json::Array();
  TP table({"variant", "flow KiB", "byte err", "rate err", "hh recall",
            "large avg(us)", "vs oracle", "overall avg(us)"});
  table.AddRow({"oracle", "-", "-", "-", "-", TP::Fmt(oracle.large_flows.avg_us, 1),
                "+0.0%", TP::Fmt(oracle.overall.avg_us, 1)});
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    const ExperimentResult& r = runner::FctResult(sweep[i]);
    const std::shared_ptr<const SketchTelemetry> sketch = r.sketch;
    if (sketch == nullptr) {
      std::fprintf(stderr, "sketch_accuracy: %s produced no telemetry\n",
                   specs[i].name.c_str());
      return 1;
    }
    const AccuracyScore score = ScoreAgainstExact(*sketch);
    const double delta_pct =
        oracle.large_flows.avg_us <= 0.0
            ? 0.0
            : (r.large_flows.avg_us - oracle.large_flows.avg_us) /
                  oracle.large_flows.avg_us * 100.0;
    const double flow_kib =
        static_cast<double>(sketch->FlowSketchMemoryBytes()) / 1024.0;
    char delta_buf[32];
    std::snprintf(delta_buf, sizeof(delta_buf), "%+.1f%%", delta_pct);
    table.AddRow({specs[i].name, TP::Fmt(flow_kib, 1),
                  TP::Fmt(score.byte_err_mean, 4),
                  score.rate_scored_flows == 0
                      ? "-"
                      : TP::Fmt(score.rate_err_mean, 4),
                  TP::Fmt(score.hh_recall, 2),
                  TP::Fmt(r.large_flows.avg_us, 1), delta_buf,
                  TP::Fmt(r.overall.avg_us, 1)});

    rows.Push(Json::Object()
                  .Set("variant", Json::Str(specs[i].name))
                  .Set("memory_kb",
                       Json::UInt(sketch->config().memory_kb))
                  .Set("flow_sketch_bytes",
                       Json::UInt(sketch->FlowSketchMemoryBytes()))
                  .Set("packets_observed",
                       Json::UInt(sketch->packets_observed()))
                  .Set("exact_flows", Json::UInt(sketch->ExactFlowCount()))
                  .Set("scored_flows", Json::UInt(score.scored_flows))
                  .Set("byte_err_mean", Json::Num(score.byte_err_mean))
                  .Set("rate_scored_flows",
                       Json::UInt(score.rate_scored_flows))
                  .Set("rate_err_mean", Json::Num(score.rate_err_mean))
                  .Set("hh_recall", Json::Num(score.hh_recall))
                  .Set("rtt_samples_admitted",
                       Json::UInt(sketch->rtt_samples_admitted()))
                  .Set("rtt_samples_offered",
                       Json::UInt(sketch->rtt_samples_offered()))
                  .Set("large_avg_us", Json::Num(r.large_flows.avg_us))
                  .Set("large_delta_vs_oracle_pct", Json::Num(delta_pct))
                  .Set("overall_avg_us", Json::Num(r.overall.avg_us))
                  .Set("short_p99_us", Json::Num(r.short_flows.p99_us)));
  }
  table.Print();

  std::printf(
      "\nExpected shape: byte/rate error and heavy-hitter misses shrink as\n"
      "the budget grows; by 64 KB the sketch-driven re-estimation holds\n"
      "large-flow FCT within 15%% of the oracle.\n");

  const std::string path = runner::ResultsPath("sketch_accuracy.json");
  if (!path.empty()) {
    Json doc = Json::Object()
                   .Set("schema_version", Json::Int(1))
                   .Set("bench", Json::Str("sketch_accuracy"))
                   .Set("flows", Json::UInt(flows))
                   .Set("seed", Json::UInt(seed))
                   .Set("oracle",
                        Json::Object()
                            .Set("large_avg_us",
                                 Json::Num(oracle.large_flows.avg_us))
                            .Set("overall_avg_us",
                                 Json::Num(oracle.overall.avg_us))
                            .Set("short_p99_us",
                                 Json::Num(oracle.short_flows.p99_us)))
                   .Set("synthetic", std::move(synthetic_rows))
                   .Set("sweep", std::move(rows));
    if (runner::WriteTextFile(path, doc.Dump())) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "sketch_accuracy: could not write %s\n",
                   path.c_str());
      return 1;
    }
  }
  return 0;
}

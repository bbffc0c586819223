// Mixed congestion control under a shared buffer: DCTCP+ECN# vs CUBIC
// cross-traffic competing for one switch chip's pool.
//
// Half of the workload's flows run the default DCTCP sender under ECN#
// marking; the other half run loss-based CUBIC sending non-ECT packets, so
// only overflow drops push back on them. How the two camps split the
// bottleneck then depends on the buffer policy:
//
//   * Dynamic Threshold (Choudhury-Hahne): the admissible queue depth is
//     alpha * free memory. DCTCP holds the queue near the ECN# target
//     regardless, but CUBIC fills whatever DT admits — so CUBIC's share of
//     the delivered throughput grows monotonically with alpha.
//   * Static split: every queue owns total/queues bytes no matter what the
//     others do; alpha does not exist, so the split is flat across the
//     sweep.
//   * Tiny pool: with the whole chip smaller than one BDP, ECN#-marked
//     flows keep their FCT (they are signalled before the queue fills)
//     while CUBIC pays for every drop with a recovery or an RTO.
//
// Exports results/cc_coexistence.json via the sweep runner; the summary
// table adds the derived throughput split.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/env.h"

namespace {

using namespace ecnsharp;
using namespace ecnsharp::bench;

// Aggregate delivered rate of one camp: bytes over the sum of its flows'
// completion times. The absolute number mixes flow sizes and concurrency,
// but the *ratio* between camps under identical arrival processes is the
// throughput split the shared buffer arbitrates.
double CampRate(const FctSummary& fct, std::uint64_t bytes) {
  const double busy_us = fct.avg_us * static_cast<double>(fct.count);
  return busy_us > 0.0 ? static_cast<double>(bytes) / busy_us : 0.0;
}

double CubicShare(const ExperimentResult& r) {
  const double cubic = CampRate(r.cubic_fct, r.cubic_bytes);
  const double reno = CampRate(r.newreno_fct, r.newreno_bytes);
  return cubic + reno > 0.0 ? cubic / (cubic + reno) : 0.0;
}

DumbbellExperimentConfig DumbbellPoint(BufferPolicyKind kind, double alpha,
                                       std::uint64_t pool_bytes,
                                       std::size_t flows, std::uint64_t seed) {
  DumbbellExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.load = 0.6;
  config.flows = flows;
  config.seed = seed;
  config.cc_mix = 0.5;
  config.buffer_policy.kind = kind;
  config.buffer_policy.alpha = alpha;
  config.buffer_policy.total_bytes = pool_bytes;
  return config;
}

}  // namespace

int main() {
  using TP = TablePrinter;
  PrintBanner("CC coexistence: DCTCP+ECN# vs CUBIC over a shared buffer");
  const std::size_t flows = BenchFlowCount(600, 2000);
  const std::uint64_t seed = BenchSeed();
  PrintScale(flows, seed);

  // One chip pool of ~1 MB for the dumbbell's 8 queues: small enough that
  // the DT limit (alpha/(1+alpha) * pool with one hot queue) binds below
  // the per-port legacy buffer, so alpha actually arbitrates.
  constexpr std::uint64_t kPoolBytes = 1 << 20;
  // Tiny-buffer regime: the whole chip is ~100 packets, under one BDP.
  constexpr std::uint64_t kTinyPoolBytes = 150 * 1024;
  const std::vector<double> alphas = {0.5, 1.0, 2.0, 4.0};

  std::vector<runner::JobSpec> specs;
  for (const double alpha : alphas) {
    specs.push_back({"dt:alpha=" + TP::Fmt(alpha, 1),
                     DumbbellPoint(BufferPolicyKind::kDynamicThreshold, alpha,
                                   kPoolBytes, flows, seed)});
  }
  for (const double alpha : alphas) {
    specs.push_back({"static:alpha=" + TP::Fmt(alpha, 1),
                     DumbbellPoint(BufferPolicyKind::kStatic, alpha,
                                   kPoolBytes, flows, seed)});
  }
  specs.push_back({"dt:tiny-pool",
                   DumbbellPoint(BufferPolicyKind::kDynamicThreshold, 1.0,
                                 kTinyPoolBytes, flows, seed)});
  {
    // One fabric point: per-chip DT pools across a leaf-spine, same mix.
    LeafSpineExperimentConfig config;
    config.scheme = Scheme::kEcnSharp;
    config.params = SimulationSchemeParams();
    config.load = 0.6;
    config.flows = flows;
    config.seed = seed;
    config.cc_mix = 0.5;
    config.buffer_policy.kind = BufferPolicyKind::kDynamicThreshold;
    config.buffer_policy.alpha = 1.0;
    specs.push_back({"leafspine:dt:alpha=1.0", config});
  }

  const std::vector<runner::JobResult> results =
      runner::RunSweep("cc_coexistence", specs);

  TP table({"point", "cubic share", "cubic avg(us)", "dctcp avg(us)",
            "cubic p99(us)", "dctcp p99(us)", "drops", "marks"});
  for (const runner::JobResult& job : results) {
    const ExperimentResult& r = job.result;
    table.AddRow({job.name, TP::Fmt(CubicShare(r), 3),
                  TP::Fmt(r.cubic_fct.avg_us, 1),
                  TP::Fmt(r.newreno_fct.avg_us, 1),
                  TP::Fmt(r.cubic_fct.p99_us, 1),
                  TP::Fmt(r.newreno_fct.p99_us, 1),
                  std::to_string(r.bottleneck.dropped_overflow),
                  std::to_string(r.bottleneck.ce_marked)});
  }
  table.Print();
  std::printf(
      "\nExpected: under DT the CUBIC share climbs monotonically with alpha "
      "(deeper\nadmissible queues favour the loss-based camp); the static "
      "split is flat across\nthe same alphas; in the tiny pool ECN#-marked "
      "DCTCP flows keep a lower FCT than\nthe drop-driven CUBIC "
      "cross-traffic.\n");
  return 0;
}

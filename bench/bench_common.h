// Shared helpers for the per-figure bench binaries.
#ifndef ECNSHARP_BENCH_BENCH_COMMON_H_
#define ECNSHARP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "harness/env.h"
#include "harness/experiment.h"
#include "harness/schemes.h"
#include "core/equations.h"
#include "harness/table.h"
#include "runner/sweep.h"
#include "topo/rtt_variation.h"

namespace ecnsharp::bench {

// Loads (%) used by the FCT figures; the paper sweeps 10..90. The default
// subset keeps the bench laptop-fast; ECNSHARP_FULL=1 runs the full sweep.
inline std::vector<int> FigureLoads(bool from20 = false) {
  if (EnvFlag("ECNSHARP_FULL")) {
    std::vector<int> loads;
    for (int l = from20 ? 20 : 10; l <= 90; l += 10) loads.push_back(l);
    return loads;
  }
  return from20 ? std::vector<int>{20, 40, 60, 80}
                : std::vector<int>{10, 30, 50, 70, 90};
}

inline std::string Norm(double value, double baseline) {
  return baseline <= 0.0 ? "-" : TablePrinter::Fmt(value / baseline, 3);
}

// Derives the testbed scheme parameters for a given RTT-variation factor k
// (base RTTs in [base, k*base]): thresholds follow Equation (1)/(2) with the
// mixture's average and 90th-percentile RTTs, exactly how §2.3/§5.2 derive
// them from measured RTT distributions.
inline SchemeParams ParamsForVariation(double k, Time base_rtt,
                                       DataRate rate) {
  const Time max_extra = base_rtt * (k - 1.0);
  const Time avg_rtt = base_rtt + RttExtraMean(max_extra);
  const Time p90_rtt = base_rtt + RttExtraPercentile(max_extra, 90.0);
  SchemeParams params;
  params.red_tail_threshold_bytes =
      IdealMarkingThresholdBytes(1.0, rate, p90_rtt);
  params.red_avg_threshold_bytes =
      IdealMarkingThresholdBytes(1.0, rate, avg_rtt);
  params.codel.interval = p90_rtt;
  params.codel.target = avg_rtt;
  params.tcn_threshold = p90_rtt;
  params.ecn_sharp.ins_target = p90_rtt;
  params.ecn_sharp.pst_interval = p90_rtt;
  params.ecn_sharp.pst_target = avg_rtt;
  // The paper's testbed switches are deep-buffered (16 MB shared on the
  // SN2100); losses there come from AQM behaviour, not buffer exhaustion.
  params.buffer_bytes = 4'000'000;
  return params;
}

inline void PrintScale(std::size_t flows, std::uint64_t seed) {
  std::printf(
      "flows/config=%zu seed=%llu  (override: ECNSHARP_FLOWS, "
      "ECNSHARP_SEED; ECNSHARP_FULL=1 for paper scale)\n",
      flows, static_cast<unsigned long long>(seed));
}

}  // namespace ecnsharp::bench

#endif  // ECNSHARP_BENCH_BENCH_COMMON_H_

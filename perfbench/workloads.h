// The benchmark's three workloads, built from the simulator's public pieces
// (topology constructor, ExperimentSession::Bind/Run/Result) exactly the way
// RunDumbbell, RunFatTree and RunInterDc build them, so setup and the run
// phase can be timed apart. RunPublic runs the library's own runner on the
// same config; the two digests must be equal.
#ifndef ECNSHARP_PERFBENCH_WORKLOADS_H_
#define ECNSHARP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness/json.h"

namespace perfbench {

enum class WorkloadId { kDumbbellWs70, kFatTreeK16, kInterDcChurn };

inline constexpr WorkloadId kAllWorkloads[] = {WorkloadId::kDumbbellWs70,
                                               WorkloadId::kFatTreeK16,
                                               WorkloadId::kInterDcChurn};

const char* WorkloadName(WorkloadId id);
bool ParseWorkload(const std::string& name, WorkloadId* out);

struct RunSpec {
  WorkloadId workload = WorkloadId::kDumbbellWs70;
  std::uint64_t seed = 1;
  std::size_t flows = 0;
  // Traced runs add a periodic probe (pending-set size, queue depths, pool
  // occupancy, mid-run invariant checks) and the per-layer replays.
  bool traced = false;
  // Multiplies the operation count of every replay (tests use tiny shapes).
  double replay_scale = 1.0;
};

// One workload run in this process: timings, peak RSS, digest, invariant
// verdicts and, for traced runs, the per-layer counts and costs.
ecnsharp::Json RunFromPieces(const RunSpec& spec);

// The library's public runner on the same config: the digest only.
ecnsharp::Json RunPublic(const RunSpec& spec);

}  // namespace perfbench

#endif  // ECNSHARP_PERFBENCH_WORKLOADS_H_

#include "runner/job.h"

#include <chrono>

namespace ecnsharp::runner {

JobResult RunJob(const JobSpec& spec) {
  JobResult result;
  result.name = spec.name;
  const auto start = std::chrono::steady_clock::now();
  result.result = RunExperiment(spec.config);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

const ExperimentResult& FctResult(const JobResult& result) {
  return std::get<ExperimentResult>(result.result);
}

const IncastResult& IncastResultOf(const JobResult& result) {
  return std::get<IncastResult>(result.result);
}

}  // namespace ecnsharp::runner

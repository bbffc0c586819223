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

}  // namespace ecnsharp::runner

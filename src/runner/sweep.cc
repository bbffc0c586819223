#include "runner/sweep.h"

#include <cstdio>

#include "harness/env.h"
#include "runner/json_export.h"

namespace ecnsharp::runner {

std::size_t DefaultJobs() {
  const std::int64_t jobs = EnvInt("ECNSHARP_JOBS", 1);
  return jobs < 1 ? 1 : static_cast<std::size_t>(jobs);
}

std::size_t WorkerCount(const SweepOptions& options, std::size_t count) {
  return std::min(options.jobs == 0 ? DefaultJobs() : options.jobs, count);
}

ProgressReporter::ProgressReporter(const SweepOptions& options,
                                   std::size_t total)
    : label_(options.label),
      total_(total),
      enabled_(options.progress && WorkerCount(options, total) > 1) {}

void ProgressReporter::JobDone(const std::string& name, double wall_seconds) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  // Crude but serviceable ETA: completed jobs predict the remaining ones.
  // With heterogeneous job sizes it converges as the sweep progresses.
  const double eta = elapsed / static_cast<double>(done_) *
                     static_cast<double>(total_ - done_);
  std::fprintf(stderr, "[%s] %zu/%zu jobs done (%s, %.1fs), ETA ~%.0fs\n",
               label_.c_str(), done_, total_, name.c_str(), wall_seconds,
               eta);
  std::fflush(stderr);
}

std::vector<JobResult> RunJobs(const std::vector<JobSpec>& specs,
                               const SweepOptions& options) {
  // ParallelMap's own progress line knows only the index; report here with
  // the job's name and wall time instead.
  ProgressReporter progress(options, specs.size());
  SweepOptions quiet = options;
  quiet.progress = false;
  return ParallelMap(
      specs.size(),
      [&](std::size_t i) {
        JobResult result = RunJob(specs[i]);
        progress.JobDone(result.name, result.wall_seconds);
        return result;
      },
      quiet);
}

std::vector<JobResult> RunSweep(const std::string& name,
                                const std::vector<JobSpec>& specs,
                                SweepOptions options) {
  options.label = name;
  std::vector<JobResult> results = RunJobs(specs, options);
  const std::string path = ResultsPath(name + ".json");
  if (!path.empty() &&
      !WriteTextFile(path, SweepToJson(name, specs, results).Dump())) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  return results;
}

}  // namespace ecnsharp::runner

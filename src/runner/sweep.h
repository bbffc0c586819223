// Parallel sweep execution with an ordered result collector.
//
// ParallelMap() is the one fan-out: it starts min(jobs, count) worker
// threads that claim indices from a shared counter and write each result
// into its pre-sized slot, so the returned vector is in index order however
// the work was scheduled and `--jobs=1` and `--jobs=8` produce
// byte-identical output. RunJobs() is ParallelMap over RunJob for the
// JobSpec families; RunSweep() adds the results/<name>.json export that
// every bench and the CLI use. Benches with custom simulator setups (the
// DWRR or DCQCN benches) call ParallelMap with their own `fn(i)`.
#ifndef ECNSHARP_RUNNER_SWEEP_H_
#define ECNSHARP_RUNNER_SWEEP_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "runner/job.h"

namespace ecnsharp::runner {

struct SweepOptions {
  // Worker threads; 0 means "use DefaultJobs()".
  std::size_t jobs = 0;
  // Progress lines on stderr (suppressed automatically for 1-job sweeps).
  bool progress = true;
  // Label used in progress lines.
  std::string label = "sweep";
};

// Worker-count default: ECNSHARP_JOBS when set (clamped to >= 1), else 1.
// Sequential by default keeps single-run benches free of thread overhead
// and makes parallelism an explicit opt-in.
std::size_t DefaultJobs();

// Worker threads a sweep of `count` items starts: the requested (or
// default) job count, capped at `count`.
std::size_t WorkerCount(const SweepOptions& options, std::size_t count);

// "[label] done/total jobs done (name, Xs), ETA ~Ys" lines on stderr. Stdout
// carries the figure tables, which must stay byte-identical for any job
// count, while stderr timing naturally varies run to run. Silent unless
// `options.progress` is set and the sweep starts more than one worker.
class ProgressReporter {
 public:
  ProgressReporter(const SweepOptions& options, std::size_t total);

  // Records one finished job and prints its line. Safe to call
  // concurrently from worker threads.
  void JobDone(const std::string& name, double wall_seconds);

 private:
  const std::string label_;
  const std::size_t total_;
  const bool enabled_;
  std::mutex mu_;
  std::size_t done_ = 0;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

// Runs fn(0..count-1) across WorkerCount(options, count) threads and
// returns results in index order; count 0 starts no thread. `fn` must be
// safe to call concurrently from multiple threads — true for any
// self-contained Simulator experiment — and its result default
// constructible (each slot is assigned once by the worker that claimed it).
// If `fn` throws, no further index is claimed and the first exception is
// rethrown once every worker has joined.
template <typename Fn>
auto ParallelMap(std::size_t count, Fn fn, const SweepOptions& options = {})
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  // std::vector<bool> packs slots into shared words: concurrent writes race.
  static_assert(!std::is_same_v<Result, bool>);
  std::vector<Result> results(count);
  ProgressReporter progress(options, count);
  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // guarded by failure_mu
  {
    std::vector<std::jthread> workers(WorkerCount(options, count));
    for (std::jthread& worker : workers) {
      worker = std::jthread([&] {
        for (std::size_t i = next++; i < count; i = next++) {
          try {
            results[i] = fn(i);
            progress.JobDone(std::to_string(i), 0.0);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(failure_mu);
            if (failure == nullptr) failure = std::current_exception();
            next = count;
          }
        }
      });
    }
  }  // the workers join here
  if (failure != nullptr) std::rethrow_exception(failure);
  return results;
}

// Executes every spec and returns results in spec order.
std::vector<JobResult> RunJobs(const std::vector<JobSpec>& specs,
                               const SweepOptions& options = {});

// RunJobs labelled `name`, then the schema-version-1 export of
// runner/json_export.h to ResultsPath(name + ".json"); ECNSHARP_NO_JSON=1
// skips the file and a write error only warns on stderr. The tables a bench prints
// from the returned vector are byte-identical for any job count.
std::vector<JobResult> RunSweep(const std::string& name,
                                const std::vector<JobSpec>& specs,
                                SweepOptions options = {});

}  // namespace ecnsharp::runner

#endif  // ECNSHARP_RUNNER_SWEEP_H_

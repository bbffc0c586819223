// JobSpec/JobResult: one simulation run as a schedulable unit of work.
//
// A JobSpec is a named, fully-specified experiment configuration (any of
// the five families of harness/experiment.h). Each job carries its own seed
// inside the config, so a job's result depends only on
// its spec — never on which worker thread ran it or in what order. That is
// the property that makes sweeps embarrassingly parallel and lets the
// collector promise byte-identical output for any --jobs value.
#ifndef ECNSHARP_RUNNER_JOB_H_
#define ECNSHARP_RUNNER_JOB_H_

#include <string>

#include "harness/experiment.h"

namespace ecnsharp::runner {

struct JobSpec {
  // Stable identifier within a sweep; keys the JSON export.
  std::string name;
  ExperimentConfig config;
};

struct JobResult {
  std::string name;
  ExperimentOutcome result;
  // Wall-clock seconds the job took (progress/ETA only; never exported).
  double wall_seconds = 0.0;
};

// Runs the experiment described by `spec` synchronously on the calling
// thread and returns its result.
JobResult RunJob(const JobSpec& spec);

// Typed accessors: fabric jobs yield an ExperimentResult, incast jobs an
// IncastResult. Calling the wrong one aborts (programming error — the
// caller built the spec and knows its family).
const ExperimentResult& FctResult(const JobResult& result);
const IncastResult& IncastResultOf(const JobResult& result);

}  // namespace ecnsharp::runner

#endif  // ECNSHARP_RUNNER_JOB_H_

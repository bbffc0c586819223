// Structured JSON export of sweep results.
//
// Every sweep run through runner::RunSweep (every bench and the CLI) lands
// in results/<sweep>.json next to the human-readable tables, so
// plotting/regression tooling never has to scrape stdout. Schema (version
// 1):
//
//   {
//     "schema_version": 1,
//     "sweep": "<name>",
//     "jobs": [
//       { "name": "<job name>",
//         "config": { topology, scheme, workload, load, seed, ..., params },
//         "result": { FCT summaries / incast metrics, queue stats } },
//       ...
//     ]
//   }
//
// Config and result field sets are defined in harness/config_json.h. Dumps
// contain no wall-clock data: repeating a sweep with any --jobs value
// yields a byte-identical file.
#ifndef ECNSHARP_RUNNER_JSON_EXPORT_H_
#define ECNSHARP_RUNNER_JSON_EXPORT_H_

#include <string>
#include <vector>

#include "harness/json.h"
#include "runner/job.h"

namespace ecnsharp::runner {

// Writes `text` to `path` (truncating), creating parent directories.
// Returns false on I/O error. The one file writer behind every export: sweep
// JSON, trace JSON/CSV, sketch JSON, and the perf benches' BENCH_*.json.
bool WriteTextFile(const std::string& path, const std::string& text);

// Where a result file named `file` goes: <dir>/<file>, with <dir> from
// ECNSHARP_RESULTS_DIR (default "results" when unset or empty). Returns an
// empty string when ECNSHARP_NO_JSON=1 disables result files.
std::string ResultsPath(const std::string& file);

// Builds the schema-version-1 document for a completed sweep. `specs` and
// `results` must be parallel arrays (as produced by RunJobs).
Json SweepToJson(const std::string& sweep_name,
                 const std::vector<JobSpec>& specs,
                 const std::vector<JobResult>& results);

}  // namespace ecnsharp::runner

#endif  // ECNSHARP_RUNNER_JSON_EXPORT_H_

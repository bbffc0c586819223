// perfbench: one workload run per process, driven by run.py.
//
//   perfbench run    --workload W --seed S --flows N [--trace]
//                    [--replay-scale X] [--cpu C]
//   perfbench public --workload W --seed S --flows N [--cpu C]
//   perfbench info
//
// `run` builds the workload from the library's public pieces and prints one
// JSON report (timings, peak RSS, digest, invariant errors; per-layer counts
// and replay costs with --trace). `public` runs the library's own runner on
// the same config and prints its digest. `info` prints the build provenance
// and a calibration loop's speed. Every mode refuses to run from a Debug
// (unoptimized) build.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/json.h"
#include "workloads.h"

namespace {

using perfbench::RunSpec;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench run|public --workload "
               "dumbbell_ws70|fattree_k16|interdc_churn --seed N --flows N "
               "[--trace] [--replay-scale X] [--cpu C]\n"
               "       perfbench info\n",
               why);
  std::exit(2);
}

std::uint64_t ParseU64(const char* flag, const char* value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    Usage((std::string("invalid ") + flag + " '" + value + "'").c_str());
  }
  return v;
}

// A fixed integer/memory loop, timed to give a host-speed reference next to
// the benchmark's figures (context only, never gated): best of 5 reps.
double CalibrationNsPerIteration() {
  constexpr std::size_t kWords = 1 << 19;  // 4 MiB
  constexpr std::uint64_t kIterations = 1 << 22;
  std::vector<std::uint64_t> buffer(kWords, 1);
  double best = 0.0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      x += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      buffer[z & (kWords - 1)] += z ^ (z >> 31);
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      static_cast<double>(kIterations);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  std::uint64_t sum = 0;
  for (std::uint64_t w : buffer) sum += w;
  if (sum == 0) std::fprintf(stderr, "calibration checksum is zero\n");
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool optimized = build_type != "Debug" && !build_type.empty();
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release\n",
                 build_type.c_str());
    return 2;
  }
  if (argc < 2) Usage("missing mode");
  const std::string mode = argv[1];
  if (mode == "info") {
    const ecnsharp::Json info =
        ecnsharp::Json::Object()
            .Set("build_type", ecnsharp::Json::Str(build_type))
            .Set("compiler", ecnsharp::Json::Str(PERFBENCH_COMPILER))
            .Set("calibration_ns",
                 ecnsharp::Json::Num(CalibrationNsPerIteration()));
    std::printf("%s\n", info.Dump().c_str());
    return 0;
  }
  if (mode != "run" && mode != "public") Usage("unknown mode");

  RunSpec spec;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      const char* name = value();
      if (!perfbench::ParseWorkload(name, &spec.workload)) {
        Usage((std::string("unknown workload '") + name + "'").c_str());
      }
      have_workload = true;
    } else if (flag == "--seed") {
      spec.seed = ParseU64("--seed", value());
      have_seed = true;
    } else if (flag == "--flows") {
      spec.flows = ParseU64("--flows", value());
      if (spec.flows == 0) Usage("--flows must be positive");
    } else if (flag == "--cpu") {
      // Pin this process to one CPU (run.py spreads runs over all of them).
      const std::uint64_t cpu = ParseU64("--cpu", value());
      cpu_set_t set;
      CPU_ZERO(&set);
      if (cpu >= CPU_SETSIZE) Usage("--cpu out of range");
      CPU_SET(static_cast<int>(cpu), &set);
      if (sched_setaffinity(0, sizeof(set), &set) != 0) {
        Usage("--cpu: cannot pin to that CPU");
      }
    } else if (flag == "--trace") {
      spec.traced = true;
    } else if (flag == "--replay-scale") {
      const char* v = value();
      char* end = nullptr;
      spec.replay_scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(spec.replay_scale > 0.0)) {
        Usage("--replay-scale must be a positive number");
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || spec.flows == 0) {
    Usage("--workload, --seed and --flows are required");
  }

  const ecnsharp::Json out = mode == "run" ? perfbench::RunFromPieces(spec)
                                           : perfbench::RunPublic(spec);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

// Runner subsystem tests: ordered collection, determinism across worker
// counts, same-seed reproducibility, and JSON export.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/config_json.h"
#include "runner/job.h"
#include "runner/json_export.h"
#include "runner/sweep.h"
#include "sim/simulator.h"

namespace ecnsharp {
namespace {

// Covers an empty map (no worker may start: fn must never run) and more
// workers than items (the surplus is capped away).
TEST(ParallelMapTest, ResultsAreInIndexOrderRegardlessOfJobs) {
  const auto fn = [](std::size_t i) { return i * i + 7; };
  for (const std::size_t count : {std::size_t{0}, std::size_t{3},
                                  std::size_t{32}}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
      runner::SweepOptions options;
      options.jobs = jobs;
      options.progress = false;
      const std::vector<std::size_t> out =
          runner::ParallelMap(count, fn, options);
      ASSERT_EQ(out.size(), count);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], i * i + 7) << "jobs=" << jobs << " i=" << i;
      }
    }
  }
  runner::SweepOptions options;
  options.jobs = 8;
  EXPECT_EQ(runner::WorkerCount(options, 0), 0u);
  EXPECT_EQ(runner::WorkerCount(options, 3), 3u);
  std::atomic<int> calls{0};
  runner::ParallelMap(0, [&calls](std::size_t) { return ++calls; }, options);
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelMapTest, RethrowsAWorkerExceptionAfterJoining) {
  runner::SweepOptions options;
  options.jobs = 4;
  options.progress = false;
  const auto fn = [](std::size_t i) {
    if (i == 5) throw std::runtime_error("job 5 failed");
    return i;
  };
  EXPECT_THROW(runner::ParallelMap(16, fn, options), std::runtime_error);
}

std::vector<runner::JobSpec> SmallDumbbellSweep() {
  std::vector<runner::JobSpec> specs;
  for (const double load : {0.3, 0.5, 0.7}) {
    DumbbellExperimentConfig config;
    config.load = load;
    config.flows = 60;
    config.seed = 42;
    specs.push_back({"load=" + std::to_string(load), config});
  }
  DumbbellExperimentConfig incast = IncastDumbbell(42);
  incast.scenario.actions[0].flows = 40;
  specs.push_back({"incast", incast});
  return specs;
}

// The headline guarantee: the same spec list produces identical ordered
// results for --jobs=1 and --jobs=8, verified through the exact JSON
// serialization used by the exporter.
TEST(RunJobsTest, Jobs1AndJobs8ProduceIdenticalResults) {
  const std::vector<runner::JobSpec> specs = SmallDumbbellSweep();

  runner::SweepOptions sequential;
  sequential.jobs = 1;
  sequential.progress = false;
  const std::vector<runner::JobResult> r1 =
      runner::RunJobs(specs, sequential);

  runner::SweepOptions parallel = sequential;
  parallel.jobs = 8;
  const std::vector<runner::JobResult> r8 = runner::RunJobs(specs, parallel);

  ASSERT_EQ(r1.size(), specs.size());
  ASSERT_EQ(r8.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(r1[i].name, specs[i].name);
    EXPECT_EQ(r8[i].name, specs[i].name);
  }
  EXPECT_EQ(runner::SweepToJson("t", specs, r1).Dump(),
            runner::SweepToJson("t", specs, r8).Dump());
}

// Same seed, same config => bitwise-equal serialized results on repeated
// sequential runs (the determinism RunJobs builds on).
TEST(RunJobsTest, RepeatedSameSeedRunDumbbellIsBitwiseEqual) {
  DumbbellExperimentConfig config;
  config.load = 0.6;
  config.flows = 80;
  config.seed = 7;
  const runner::JobSpec spec{"repeat", config};

  const runner::JobResult a = runner::RunJob(spec);
  const runner::JobResult b = runner::RunJob(spec);
  const ExperimentResult& ra = a.result;
  const ExperimentResult& rb = b.result;
  EXPECT_EQ(ToJson(ra).Dump(), ToJson(rb).Dump());
  // Spot-check raw fields too, in case serialization ever rounds.
  EXPECT_EQ(ra.overall.avg_us, rb.overall.avg_us);
  EXPECT_EQ(ra.overall.p99_us, rb.overall.p99_us);
  EXPECT_EQ(ra.flows_completed, rb.flows_completed);
  EXPECT_EQ(ra.bottleneck.ce_marked, rb.bottleneck.ce_marked);
}

TEST(JsonExportTest, WritesParsableFileWithSchemaFields) {
  std::vector<runner::JobSpec> specs;
  DumbbellExperimentConfig config = IncastDumbbell(3);
  config.scenario.actions[0].flows = 30;
  specs.push_back({"fanout30", config});
  const std::vector<runner::JobResult> results = runner::RunJobs(specs);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "ecnsharp_runner_test" /
      "export.json";
  std::filesystem::remove_all(path.parent_path());
  ASSERT_TRUE(runner::WriteTextFile(
      path.string(), runner::SweepToJson("unit", specs, results).Dump()));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"sweep\": \"unit\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"fanout30\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"incast_burst\""), std::string::npos);
  EXPECT_NE(text.find("\"standing_queue_packets\""), std::string::npos);
  EXPECT_EQ(text, runner::SweepToJson("unit", specs, results).Dump());
  std::filesystem::remove_all(path.parent_path());
}

// The cancellation-bookkeeping fix: cancelling an already-executed event
// must not leave a permanent entry behind.
TEST(SimulatorCancelTest, CancelAfterExecutionDoesNotAccumulate) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.ScheduleAt(Time::Microseconds(i), [] {}));
  }
  sim.RunUntil(Time::Seconds(1));
  EXPECT_EQ(sim.live_events(), 0u);
  for (const EventId id : ids) sim.Cancel(id);
  EXPECT_EQ(sim.live_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCancelTest, LiveEventsTracksPendingOnly) {
  Simulator sim;
  const EventId a = sim.ScheduleAt(Time::Microseconds(10), [] {});
  sim.ScheduleAt(Time::Microseconds(20), [] {});
  EXPECT_EQ(sim.live_events(), 2u);
  sim.Cancel(a);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.RunUntil(Time::Seconds(1));
  EXPECT_EQ(sim.live_events(), 0u);
}

}  // namespace
}  // namespace ecnsharp

// Fleet scenario battery (ctest labels: fleet, golden, integration):
//   * the serialized result JSON of every fleet_* scenario is byte-identical
//     between --jobs 1 and --jobs 4 (cluster-scale determinism);
//   * every fleet_* scenario replays clean under the SimValidator, with a
//     TraceRecorder subscribed beside it that must record events, each
//     with a name and a category, and its observed result (the event
//     path) equals an unobserved run's (the slot executor) value by value,
//     bit for bit;
//   * results satisfy the pinned golden files in bench/golden, including
//     the headline pair: the ooo co-run fleet holds p99 flat (<= 10%
//     growth) as load doubles while the in-order baseline degrades.
// It also hosts the full golden sweep: every registered scenario run at
// --jobs 4 against its file in bench/golden, and every file there naming a
// registered scenario.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/golden.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/registry.h"
#include "src/runner/runner.h"
#include "src/runner/search_scenarios.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"
#include "src/trace/trace.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

constexpr size_t kFleetScenarios = 11;  // 3 policies x 3 sizes + corun pair

RunnerOptions FleetOpts(int jobs) {
  RunnerOptions opts;
  opts.filter = "fleet_*";
  opts.jobs = jobs;
  opts.print = false;
  return opts;
}

TEST(FleetGoldenTest, JobsParallelismIsByteIdentical) {
  RegisterFleetScenarios();
  const RunnerReport serial = RunScenarios(FleetOpts(1));
  const RunnerReport parallel = RunScenarios(FleetOpts(4));
  ASSERT_EQ(serial.runs.size(), kFleetScenarios);
  ASSERT_EQ(parallel.runs.size(), serial.runs.size());
  EXPECT_EQ(serial.num_scenario_failures, 0);
  EXPECT_EQ(parallel.num_scenario_failures, 0);
  for (size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].scenario->name,
              parallel.runs[i].scenario->name);
    EXPECT_EQ(serial.runs[i].json, parallel.runs[i].json)
        << serial.runs[i].scenario->name;
    EXPECT_FALSE(serial.runs[i].json.empty())
        << serial.runs[i].scenario->name;
  }
}

TEST(FleetGoldenTest, AllFleetScenariosRunCleanUnderValidator) {
  RegisterFleetScenarios();
  const std::vector<const Scenario*> fleet =
      ScenarioRegistry::Global().Match("fleet_*");
  ASSERT_EQ(fleet.size(), kFleetScenarios);
  for (const Scenario* scenario : fleet) {
    SimValidator validator;
    TraceRecorder trace;
    ScenarioResult result;
    {
      const ObserverScope validating(&validator);
      const ObserverScope tracing(&trace);
      result = scenario->run(ScenarioParams());
    }
    EXPECT_FALSE(result.values.empty()) << scenario->name;
    EXPECT_TRUE(validator.ok())
        << scenario->name << ": " << validator.Summary();
    // Every fleet scenario simulates real replica GPUs to completion.
    EXPECT_GT(validator.gpus_observed(), 0) << scenario->name;
    EXPECT_GT(validator.kernels_finished(), 0) << scenario->name;
    EXPECT_FALSE(trace.events().empty()) << scenario->name;
    EXPECT_EQ(std::count_if(trace.events().begin(), trace.events().end(),
                            [](const TraceEvent& e) {
                              return e.name.empty() || e.category.empty();
                            }),
              0)
        << scenario->name << ": unlabelled events";
    // The slot executor reproduces the validated event path exactly.
    EXPECT_EQ(ValuesMismatch(scenario->run(ScenarioParams()), result), "")
        << scenario->name;
  }
}

TEST(FleetGoldenTest, ResultsMatchPinnedGoldensAndHeadlineHolds) {
  RegisterFleetScenarios();
  const RunnerReport report = RunScenarios(FleetOpts(1));
  ASSERT_EQ(report.runs.size(), kFleetScenarios);

  const ScenarioResult* baseline = nullptr;
  const ScenarioResult* ooo = nullptr;
  for (const ScenarioRun& run : report.runs) {
    ASSERT_TRUE(run.ok) << run.scenario->name << ": " << run.error;
    std::string error;
    const auto spec = LoadGoldenFile(
        GoldenPathFor(OOBP_REPO_ROOT "/bench/golden", run.scenario->name),
        &error);
    ASSERT_TRUE(spec.has_value()) << run.scenario->name << ": " << error;
    for (const std::string& failure :
         CheckAgainstGolden(*spec, run.result)) {
      ADD_FAILURE() << run.scenario->name << ": " << failure;
    }
    if (run.scenario->name == "fleet_corun_baseline_64") {
      baseline = &run.result;
    } else if (run.scenario->name == "fleet_corun_ooo_64") {
      ooo = &run.result;
    }
  }

  // Headline relation, pinned directly and not just via the per-file
  // goldens: at doubled load the ooo fleet's p99 stays flat while the
  // in-order baseline's tail blows up.
  ASSERT_NE(baseline, nullptr);
  ASSERT_NE(ooo, nullptr);
  EXPECT_LE(ooo->Get("p99_growth"), 1.10);
  EXPECT_GE(baseline->Get("p99_growth"), 1.30);
  EXPECT_LT(ooo->Get("p99_growth"), baseline->Get("p99_growth"));
  // The co-run price on training stays within the paper's <= 2% band.
  EXPECT_LE(ooo->Get("load2.train_overhead"), 1.02);
}

// The one gate over all of bench/golden, and the only one for the ana_*
// and abl_* sweeps. It runs both ways, so no scenario lands ungated and no
// golden file outlives its scenario: every registered scenario is compared
// against its golden file and none mismatches, and every golden file names
// a registered scenario.
TEST(FleetGoldenTest, FullGoldenSweepMatchesEveryGolden) {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  RegisterSearchScenarios();
  const std::string golden_dir = OOBP_REPO_ROOT "/bench/golden";
  RunnerOptions opts;
  opts.jobs = 4;
  opts.print = false;
  opts.golden_dir = golden_dir;
  const RunnerReport report = RunScenarios(opts);
  EXPECT_EQ(report.runs.size(), ScenarioRegistry::Global().size());
  for (const ScenarioRun& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.scenario->name << ": " << run.error;
    EXPECT_TRUE(run.golden_compared)
        << run.scenario->name << " has no file in bench/golden";
    for (const std::string& failure : run.golden_failures) {
      ADD_FAILURE() << run.scenario->name << ": " << failure;
    }
  }
  EXPECT_EQ(report.num_golden_failures, 0);

  for (const auto& entry : std::filesystem::directory_iterator(golden_dir)) {
    EXPECT_EQ(entry.path().extension(), ".json") << entry.path();
    EXPECT_NE(ScenarioRegistry::Global().Find(entry.path().stem().string()),
              nullptr)
        << entry.path() << " names no registered scenario";
  }
}

}  // namespace
}  // namespace oobp

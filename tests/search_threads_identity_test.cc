// Byte-identity battery for the parallel search-trajectory portfolio
// (ctest labels: search, golden, integration): the serialized result JSON
// of the deep-budget search scenarios must be byte-identical at --param
// threads 1, 4, and 8, and must still satisfy the pinned golden files when
// parallel. Trajectories are pure functions of their index with
// private evaluators, caches, and Rngs, merged in index order — so the
// worker count is a pure wall-clock optimization, never a result change
// (DESIGN.md §14).

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/runner/runner.h"
#include "src/runner/search_scenarios.h"

namespace oobp {
namespace {

// search_deep_fig07 runs the full pipeline (analytic Tier A, candidate
// cache, Tier-B trajectory bests) at beam=4 and budget 4000 across three
// models; search_eval_perf covers beam=2 on densenet121.
const char kBatteryFilter[] = "search_deep_fig07,search_eval_perf";
constexpr size_t kBatterySize = 2;

std::map<std::string, std::string> RunBattery(const std::string& threads,
                                              const std::string& golden_dir) {
  RegisterSearchScenarios();
  RunnerOptions opts;
  opts.filter = kBatteryFilter;
  opts.print = false;
  opts.golden_dir = golden_dir;
  if (!threads.empty()) {
    opts.params.Set("threads", threads);
  }
  const RunnerReport report = RunScenarios(opts);
  EXPECT_EQ(report.runs.size(), kBatterySize);
  EXPECT_EQ(report.num_scenario_failures, 0);
  EXPECT_EQ(report.num_golden_failures, 0);
  std::map<std::string, std::string> json;
  for (const ScenarioRun& run : report.runs) {
    EXPECT_TRUE(run.ok) << run.scenario->name << ": " << run.error;
    EXPECT_FALSE(run.json.empty()) << run.scenario->name;
    json[run.scenario->name] = run.json;
  }
  return json;
}

TEST(SearchThreadsIdentity, ParallelRunsAreByteIdenticalToReference) {
  const auto reference = RunBattery("1", "");
  ASSERT_EQ(reference.size(), kBatterySize);
  for (const char* threads : {"4", "8"}) {
    const auto parallel = RunBattery(threads, "");
    for (const auto& [name, json] : reference) {
      ASSERT_TRUE(parallel.count(name)) << name;
      EXPECT_EQ(parallel.at(name), json)
          << name << " diverged at --param threads=" << threads;
    }
  }
}

TEST(SearchThreadsIdentity, ParallelRunsSatisfyGoldens) {
  const std::string golden_dir = std::string(OOBP_REPO_ROOT) + "/bench/golden";
  const auto parallel = RunBattery("8", golden_dir);
  EXPECT_EQ(parallel.size(), kBatterySize);  // goldens checked inside
}

}  // namespace
}  // namespace oobp

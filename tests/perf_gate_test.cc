// Unit tests for the perf regression gate's comparison policy
// (CheckPerfBaseline in src/runner/perf.h): event-count inflation is a hard
// failure, deflation and coverage drift are notices, wall-clock bands are
// informational and only evaluated when requested. Also the harness's
// repeat rule (RunPerf).

#include "src/runner/perf.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/runner/registry.h"

namespace oobp {
namespace {

const char* kBaseline = R"({
  "wall_band_frac": 0.5,
  "scenarios": {
    "fig07_resnet50": {"events": 1000, "wall_ms_best": 10.0},
    "serve_only_resnet50": {"events": 500, "wall_ms_best": 4.0}
  }
})";

TEST(PerfGateTest, ExactMatchPasses) {
  const std::vector<PerfSample> measured = {
      {"fig07_resnet50", 1000, 10.0}, {"serve_only_resnet50", 500, 4.0}};
  const PerfCheckReport report = CheckPerfBaseline(kBaseline, measured, true);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.failures.empty());
  EXPECT_TRUE(report.notices.empty());
}

TEST(PerfGateTest, EventInflationFails) {
  const std::vector<PerfSample> measured = {
      {"fig07_resnet50", 1001, 10.0}, {"serve_only_resnet50", 500, 4.0}};
  const PerfCheckReport report = CheckPerfBaseline(kBaseline, measured, false);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("fig07_resnet50"), std::string::npos);
  EXPECT_NE(report.failures[0].find("inflated"), std::string::npos);
}

TEST(PerfGateTest, EventDeflationIsANotice) {
  const std::vector<PerfSample> measured = {
      {"fig07_resnet50", 900, 10.0}, {"serve_only_resnet50", 500, 4.0}};
  const PerfCheckReport report = CheckPerfBaseline(kBaseline, measured, false);
  EXPECT_TRUE(report.ok());  // improvements never fail the gate
  ASSERT_EQ(report.notices.size(), 1u);
  EXPECT_NE(report.notices[0].find("improved"), std::string::npos);
}

TEST(PerfGateTest, CoverageDriftIsANotice) {
  // A scenario only in the baseline AND one only in the run: both noticed,
  // neither fails — renames should be deliberate, not silent.
  const std::vector<PerfSample> measured = {{"fig07_resnet50", 1000, 10.0},
                                            {"brand_new", 7, 1.0}};
  const PerfCheckReport report = CheckPerfBaseline(kBaseline, measured, false);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.notices.size(), 2u);
  EXPECT_NE(report.notices[0].find("brand_new"), std::string::npos);
  EXPECT_NE(report.notices[1].find("serve_only_resnet50"), std::string::npos);
}

TEST(PerfGateTest, OnlyFilteredBaselineEntriesCountAsUnmeasured) {
  // A filtered run measures a subset: baseline entries outside the filter
  // are not coverage drift, entries inside it still are.
  const std::vector<PerfSample> measured = {{"fig07_resnet50", 1000, 10.0}};
  const PerfCheckReport filtered =
      CheckPerfBaseline(kBaseline, measured, false, "fig07_*");
  EXPECT_TRUE(filtered.ok());
  EXPECT_TRUE(filtered.notices.empty());

  const PerfCheckReport wider =
      CheckPerfBaseline(kBaseline, measured, false, "fig07_*,serve_*");
  EXPECT_TRUE(wider.ok());
  ASSERT_EQ(wider.notices.size(), 1u);
  EXPECT_NE(wider.notices[0].find("serve_only_resnet50"), std::string::npos);
}

TEST(PerfGateTest, WallBandOnlyWhenEnabled) {
  const std::vector<PerfSample> slow = {{"fig07_resnet50", 1000, 15.1},
                                        {"serve_only_resnet50", 500, 4.0}};
  // 15.1 > 10 * (1 + 0.5): over the band, but still only a notice...
  const PerfCheckReport banded = CheckPerfBaseline(kBaseline, slow, true);
  EXPECT_TRUE(banded.ok());
  ASSERT_EQ(banded.notices.size(), 1u);
  EXPECT_NE(banded.notices[0].find("wall"), std::string::npos);
  // ...and not evaluated at all on sanitizer/debug builds.
  const PerfCheckReport unbanded = CheckPerfBaseline(kBaseline, slow, false);
  EXPECT_TRUE(unbanded.notices.empty());
  // Within the band: silent.
  const std::vector<PerfSample> ok = {{"fig07_resnet50", 1000, 14.9},
                                      {"serve_only_resnet50", 500, 4.0}};
  EXPECT_TRUE(CheckPerfBaseline(kBaseline, ok, true).notices.empty());
}

// Analytic-evaluator entries (ISSUE-10): the eval count is deterministic,
// so drift in EITHER direction is a hard failure; the evals/sec floor is
// wall-clock dependent and only gates when wall bands are on.
const char* kAnalyticBaseline = R"({
  "scenarios": {
    "search_eval_perf": {"events": 100, "wall_ms_best": 200.0,
                         "analytic_evals": 4000,
                         "analytic_per_sec_floor": 8000.0}
  }
})";

PerfSample AnalyticSample(uint64_t evals, double per_sec) {
  PerfSample s;
  s.scenario = "search_eval_perf";
  s.events = 100;
  s.wall_ms_best = 200.0;
  s.analytic_evals = evals;
  s.analytic_per_sec = per_sec;
  return s;
}

TEST(PerfGateTest, AnalyticEvalDriftFailsBothDirections) {
  EXPECT_TRUE(
      CheckPerfBaseline(kAnalyticBaseline, {AnalyticSample(4000, 20000.0)},
                        false)
          .ok());
  for (const uint64_t drifted : {3999u, 4001u}) {
    const PerfCheckReport report = CheckPerfBaseline(
        kAnalyticBaseline, {AnalyticSample(drifted, 20000.0)}, false);
    EXPECT_FALSE(report.ok()) << "evals " << drifted << " should hard-fail";
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_NE(report.failures[0].find("drifted"), std::string::npos);
  }
}

TEST(PerfGateTest, AnalyticFloorOnlyWhenWallBandsOn) {
  // Below the floor: fails on Release (wall bands on)...
  const PerfCheckReport banded = CheckPerfBaseline(
      kAnalyticBaseline, {AnalyticSample(4000, 7000.0)}, true);
  EXPECT_FALSE(banded.ok());
  ASSERT_EQ(banded.failures.size(), 1u);
  EXPECT_NE(banded.failures[0].find("floor"), std::string::npos);
  // ...but never on sanitizer/debug builds (arbitrarily slower).
  EXPECT_TRUE(CheckPerfBaseline(kAnalyticBaseline,
                                {AnalyticSample(4000, 7000.0)}, false)
                  .ok());
  // Above the floor: silent.
  EXPECT_TRUE(CheckPerfBaseline(kAnalyticBaseline,
                                {AnalyticSample(4000, 8001.0)}, true)
                  .ok());
}

TEST(PerfGateTest, EntriesWithoutAnalyticFieldsIgnoreAnalyticStats) {
  // The plain-simulator baseline entries say nothing about analytic evals:
  // whatever the sample carries must not gate.
  PerfSample s;
  s.scenario = "fig07_resnet50";
  s.events = 1000;
  s.wall_ms_best = 10.0;
  s.analytic_evals = 123;
  s.analytic_per_sec = 1.0;
  PerfSample other;
  other.scenario = "serve_only_resnet50";
  other.events = 500;
  other.wall_ms_best = 4.0;
  const PerfCheckReport report =
      CheckPerfBaseline(kBaseline, {s, other}, true);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.notices.empty());
}

// Planner work (Algorithm 1 passes and co-run speedup evaluations) is as
// deterministic as events and gated the same way: more hard-fails, less is a
// notice, and an entry without a count expects none.
const char* kPlannerBaseline = R"({
  "scenarios": {
    "fig07_densenet121": {"events": 100, "wall_ms_best": 1.0,
                          "planner_passes": 8, "speedup_evals": 3000},
    "fig10_priva": {"events": 200, "wall_ms_best": 4.0}
  }
})";

std::vector<PerfSample> PlannerSamples(uint64_t passes, uint64_t evals,
                                       uint64_t unplanned_passes = 0) {
  PerfSample planned;
  planned.scenario = "fig07_densenet121";
  planned.events = 100;
  planned.wall_ms_best = 1.0;
  planned.planner_passes = passes;
  planned.speedup_evals = evals;
  PerfSample unplanned;
  unplanned.scenario = "fig10_priva";
  unplanned.events = 200;
  unplanned.wall_ms_best = 4.0;
  unplanned.planner_passes = unplanned_passes;
  unplanned.speedup_evals = unplanned_passes;
  return {planned, unplanned};
}

TEST(PerfGateTest, PlannerWorkGatedLikeEvents) {
  const PerfCheckReport exact =
      CheckPerfBaseline(kPlannerBaseline, PlannerSamples(8, 3000), false);
  EXPECT_TRUE(exact.ok());
  EXPECT_TRUE(exact.notices.empty());

  const PerfCheckReport more_passes =
      CheckPerfBaseline(kPlannerBaseline, PlannerSamples(9, 3000), false);
  ASSERT_EQ(more_passes.failures.size(), 1u);
  EXPECT_NE(more_passes.failures[0].find("planner_passes inflated 8 -> 9"),
            std::string::npos);
  const PerfCheckReport more_evals =
      CheckPerfBaseline(kPlannerBaseline, PlannerSamples(8, 3001), false);
  ASSERT_EQ(more_evals.failures.size(), 1u);
  EXPECT_NE(more_evals.failures[0].find("speedup_evals inflated"),
            std::string::npos);

  const PerfCheckReport fewer =
      CheckPerfBaseline(kPlannerBaseline, PlannerSamples(7, 2000), false);
  EXPECT_TRUE(fewer.ok());
  ASSERT_EQ(fewer.notices.size(), 2u);
  EXPECT_NE(fewer.notices[0].find("planner_passes improved"),
            std::string::npos);
  EXPECT_NE(fewer.notices[1].find("speedup_evals improved"),
            std::string::npos);

  // A scenario whose entry has no planner counts must not start planning.
  const PerfCheckReport started =
      CheckPerfBaseline(kPlannerBaseline, PlannerSamples(8, 3000, 1), false);
  ASSERT_EQ(started.failures.size(), 2u);
  EXPECT_NE(started.failures[0].find("fig10_priva: planner_passes inflated"),
            std::string::npos);
}

TEST(PerfGateTest, MalformedBaselineFails) {
  EXPECT_FALSE(CheckPerfBaseline("not json", {}, false).ok());
  EXPECT_FALSE(CheckPerfBaseline("[1,2]", {}, false).ok());
  EXPECT_FALSE(CheckPerfBaseline("{\"no_scenarios\": 1}", {}, false).ok());
  // An entry without an event count cannot gate anything: hard failure.
  const char* no_events = R"({"scenarios": {"x": {"wall_ms_best": 1.0}}})";
  const PerfCheckReport report =
      CheckPerfBaseline(no_events, {{"x", 5, 1.0}}, false);
  EXPECT_FALSE(report.ok());
}

TEST(PerfGateTest, DefaultBandIsHalf) {
  // No wall_band_frac in the document: the band defaults to +50%.
  const char* base = R"({"scenarios": {"x": {"events": 10, "wall_ms_best": 10.0}}})";
  EXPECT_TRUE(CheckPerfBaseline(base, {{"x", 10, 14.9}}, true).notices.empty());
  EXPECT_EQ(CheckPerfBaseline(base, {{"x", 10, 15.1}}, true).notices.size(),
            1u);
}

// The harness times a scenario `repeats` times, and more until the timed
// runs add up to kPerfMinTimedSeconds: a trivial scenario runs far more
// often, one that takes the whole minimum per run exactly `repeats` times.
TEST(PerfHarnessTest, FastScenariosRunUntilTheMinimumTimedWall) {
  // The registry outlives the test, so the scenarios count into statics.
  static int trivial_runs = 0;
  static int slow_runs = 0;
  trivial_runs = 0;
  slow_runs = 0;
  ScenarioRegistry& registry = ScenarioRegistry::Global();
  if (registry.Find("perf_harness_trivial") == nullptr) {
    registry.Register(
        {"perf_harness_trivial", "-", "no work", [](const ScenarioParams&) {
           ++trivial_runs;
           return ScenarioResult();
         }});
    registry.Register(
        {"perf_harness_slow", "-", "sleeps", [](const ScenarioParams&) {
           ++slow_runs;
           std::this_thread::sleep_for(
               std::chrono::duration<double>(kPerfMinTimedSeconds));
           return ScenarioResult();
         }});
  }
  PerfOptions opts;
  opts.filter = "perf_harness_*";
  opts.warmup = 1;
  opts.repeats = 2;
  opts.output_dir = ::testing::TempDir();
  opts.print = false;
  ASSERT_EQ(RunPerf(opts), 0);
  EXPECT_GT(trivial_runs, opts.warmup + opts.repeats);
  EXPECT_EQ(slow_runs, opts.warmup + opts.repeats);
  std::remove((opts.output_dir + "/BENCH_sim_perf.json").c_str());
}

}  // namespace
}  // namespace oobp

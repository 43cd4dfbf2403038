// Replays every registered golden scenario — the 19 paper-figure training
// scenarios, the 6 inference-serving scenarios, the 12 scaling, analysis
// and ablation sweeps, the 3 steady-state replay scenarios, and the 2
// parameter-server cluster scenarios — observed by a SimValidator and a
// TraceRecorder at once, asserting zero invariant violations and trace
// events from every scenario that builds a device, each with a name and a
// category (ctest label: validate).
// An observed run takes every engine's event path (src/hw/observer.h), so
// each replay must also equal an unobserved run of the same scenario value
// by value, bit for bit, apart from the steady_* keys that say how many
// iterations a run stepped.
// The 11 fleet scenarios are counted here but replayed observed in
// fleet_golden_test.cc (which also pins their --jobs byte-identity), so
// the suite does not pay for the multi-replica simulations twice.
//
// The observer list is thread-local, so scenarios run directly on this
// thread rather than through RunScenarios' thread pool. Each scenario gets
// a fresh validator and recorder, keeping a violation attributable to the
// scenario that produced it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/registry.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"
#include "src/trace/trace.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

// Analytic scenarios, which build no simulated device and so give the
// validator nothing to observe: ana_corun's CorunProfiler capacity analysis
// (Section 8.2 reasons over occupancy ratios, not event timelines), fig01's
// cost-model table, fig08's region schedule, fig09's memory curves and
// ana_recompute's checkpointing memory model.
constexpr const char* kAnalyticScenarios[] = {
    "ana_corun", "fig01_kernel_issue", "fig08_regions", "fig09_memory",
    "ana_recompute"};

// Recorded events without a name or a category.
int64_t UnlabelledEvents(const TraceRecorder& trace) {
  return std::count_if(trace.events().begin(), trace.events().end(),
                       [](const TraceEvent& e) {
                         return e.name.empty() || e.category.empty();
                       });
}

// `result` without the keys that say how a run was stepped: an observed
// run steps every iteration, an unobserved one may stop at a repeated
// boundary (DESIGN.md §9.2).
ScenarioResult WithoutSteppingKeys(ScenarioResult result) {
  std::erase_if(result.values, [](const MetricKv& kv) {
    return kv.key.ends_with(".replayed") ||
           kv.key.ends_with(".simulated_iterations");
  });
  return result;
}

TEST(ValidateGoldenTest, AllScenariosRunCleanUnderValidator) {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  const ScenarioRegistry& reg = ScenarioRegistry::Global();

  int train = 0, serve = 0, sweep = 0, steady = 0, cluster = 0, fleet = 0;
  int other = 0;
  int64_t total_gpus = 0, total_links = 0;
  int64_t total_kernels = 0, total_transfers = 0;
  for (const Scenario& scenario : reg.scenarios()) {
    if (scenario.label == "train") {
      ++train;
    } else if (scenario.label == "serve") {
      ++serve;
    } else if (scenario.label == "sweep") {
      ++sweep;
    } else if (scenario.label == "steady") {
      ++steady;
    } else if (scenario.label == "cluster") {
      ++cluster;
    } else if (scenario.label == "fleet") {
      // Counted so the registry totals stay honest, but replayed under the
      // validator in fleet_golden_test.cc instead of a second time here.
      ++fleet;
      continue;
    } else {
      ++other;
    }
    SimValidator validator;
    TraceRecorder trace;
    ScenarioResult result;
    {
      const ObserverScope validating(&validator);
      const ObserverScope tracing(&trace);
      result = scenario.run(ScenarioParams());
      EXPECT_FALSE(result.values.empty()) << scenario.name;
    }
    EXPECT_TRUE(validator.ok())
        << scenario.name << ": " << validator.Summary();
    // Every executor reproduces its observed event path exactly.
    const ScenarioResult unobserved = scenario.run(ScenarioParams());
    if (scenario.label == "steady") {
      EXPECT_EQ(ValuesMismatch(WithoutSteppingKeys(unobserved),
                               WithoutSteppingKeys(result)),
                "")
          << scenario.name;
    } else {
      EXPECT_EQ(ValuesMismatch(unobserved, result), "") << scenario.name;
    }
    // A clean validator that saw no devices proves nothing; every scenario
    // but the analytic ones simulates at least one observed device (the
    // pipeline toys model stage compute analytically and only build Links)
    // to completion, and its trace is not empty.
    if (std::find(std::begin(kAnalyticScenarios), std::end(kAnalyticScenarios),
                  scenario.name) == std::end(kAnalyticScenarios)) {
      EXPECT_GT(validator.gpus_observed() + validator.links_observed(), 0)
          << scenario.name;
      EXPECT_GT(
          validator.kernels_finished() + validator.transfers_completed(), 0)
          << scenario.name;
      EXPECT_FALSE(trace.events().empty()) << scenario.name;
      EXPECT_EQ(UnlabelledEvents(trace), 0) << scenario.name;
    } else {
      EXPECT_TRUE(trace.events().empty()) << scenario.name;
    }
    total_gpus += validator.gpus_observed();
    total_links += validator.links_observed();
    total_kernels += validator.kernels_finished();
    total_transfers += validator.transfers_completed();
  }

  // The registry must hold the full golden suite (19 train + 6 serve +
  // 12 sweep + 3 steady + 2 cluster + 11 fleet); a silently missing scenario
  // would hollow out this test, and an unknown label would dodge the
  // per-group counts.
  EXPECT_EQ(train, 19);
  EXPECT_EQ(serve, 6);
  EXPECT_EQ(sweep, 12);
  EXPECT_EQ(steady, 3);
  EXPECT_EQ(cluster, 2);
  EXPECT_EQ(fleet, 11);
  EXPECT_EQ(other, 0);
  // The suite exercises the communication path too (data-parallel and
  // pipeline scenarios move gradients over Links).
  EXPECT_GT(total_links, 0);
  EXPECT_GT(total_transfers, 0);
  EXPECT_GT(total_gpus, 0);
  EXPECT_GT(total_kernels, 0);
}

}  // namespace
}  // namespace oobp

// Property battery for the search-based scheduler baseline (src/search).
//
// The contract under test (DESIGN.md §13):
//   * every schedule the search emits — across hundreds of fuzzed models —
//     passes the full CheckIterationSchedule gate (machine-verified);
//   * the searched iteration time is never worse than the in-order
//     baseline, and the searched peak stays under the memory cap;
//   * beam=1 runs only the deterministic greedy trajectory, so the seed is
//     ignored there;
//   * identical (seed, beam, budget) produce byte-identical schedules;
//   * enlarging the beam never worsens the best score (portfolio
//     monotonicity);
//   * budget=0 degrades to the conventional schedule;
//   * the genotype decoder is dependency-safe for *arbitrary* genotypes and
//     maps the conventional genotype to ConventionalIteration exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/search/evaluator.h"
#include "src/search/search.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

// A random small model: 3..10 layers of mixed kinds, always at least one
// parameterized layer (mirrors the fuzzer's generator without linking it).
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "search-fuzz";
  model.batch = 8 << rng.NextBelow(3);
  const int L = 3 + static_cast<int>(rng.NextBelow(8));
  for (int i = 0; i < L; ++i) {
    const std::string name = "l" + std::to_string(i);
    const std::string block = "b" + std::to_string(i / 2);
    const int c = 8 << rng.NextBelow(3);
    const int hw = 8 << rng.NextBelow(2);
    switch (rng.NextBelow(4)) {
      case 0:
      case 1:
        model.layers.push_back(
            MakeConv2d(name, block, model.batch, c, hw, hw,
                       8 + static_cast<int>(rng.NextBelow(25)), 3, 1));
        break;
      case 2:
        model.layers.push_back(MakePool(name, block, model.batch, c, hw, hw));
        break;
      default:
        model.layers.push_back(MakeDense(name, block, model.batch, 1,
                                         64 << rng.NextBelow(2),
                                         64 << rng.NextBelow(2)));
        break;
    }
  }
  bool any_params = false;
  for (const Layer& layer : model.layers) {
    any_params = any_params || layer.has_params();
  }
  if (!any_params) {
    model.layers.back() =
        MakeConv2d("l" + std::to_string(L - 1), "tail", model.batch, 16, 8, 8,
                   16, 3, 1);
  }
  return model;
}

GpuSpec RotatingGpu(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return GpuSpec::V100();
    case 1:
      return GpuSpec::P100();
    default:
      return GpuSpec::TitanXp();
  }
}

TEST(SearchGenotypeTest, ConventionalGenotypeDecodesToConventionalIteration) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    EXPECT_EQ(DecodeGenotype(graph, ConventionalGenotype(graph)).ToString(),
              ConventionalIteration(graph).ToString())
        << "seed " << seed;
  }
}

TEST(SearchGenotypeTest, ArbitraryGenotypesDecodeToValidSchedules) {
  // The decoder clamps into the dependency window, so *any* gene values —
  // even out-of-range slots — must produce checker-clean schedules.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 977);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    Genotype genotype;
    for (int layer = graph.num_layers() - 1; layer >= 0; --layer) {
      if (!graph.HasWgrad(layer)) continue;
      const int slot = static_cast<int>(rng.NextBelow(
                           2 * static_cast<uint64_t>(graph.num_layers()) + 8)) -
                       4;  // deliberately may fall outside the window
      const int stream =
          rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
      genotype.push_back({layer, slot, stream});
    }
    const IterationSchedule schedule = DecodeGenotype(graph, genotype);
    const ScheduleCheckReport report = CheckIterationSchedule(graph, schedule);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
  }
}

TEST(SearchGenotypeTest, SlotWindowsMatchDependencyPositions) {
  Rng rng(7);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const int L = graph.num_layers();
  for (int i = 0; i < L; ++i) {
    EXPECT_EQ(MinSlot(graph, i), i < L - 1 ? L - 2 - i : 0);
    EXPECT_EQ(MaxSlot(graph, i), L + i - 1);
    EXPECT_LE(MinSlot(graph, i), MaxSlot(graph, i));
  }
}

// The headline battery: 200 fuzzed seeds, every emitted schedule verified.
TEST(SearchScheduleTest, FuzzedSchedulesPassCheckerAndNeverLoseToInOrder) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.beam = 1 + static_cast<int>(seed % 2);
    options.seed = seed;
    options.budget = 6 + static_cast<int>(seed % 5);
    const SearchResult result = SearchSchedule(graph, gpu, profile, options);

    const ScheduleCheckReport report =
        CheckIterationSchedule(graph, result.schedule);
    ASSERT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
    EXPECT_LE(result.best_time, result.conventional_time) << "seed " << seed;

    ScheduleEvaluator eval(&model, gpu, profile);
    const int64_t conventional_peak =
        eval.PeakMemory(ConventionalIteration(graph));
    EXPECT_LE(result.peak_memory,
              static_cast<int64_t>(options.memory_cap_factor *
                                   conventional_peak))
        << "seed " << seed;
  }
}

// DESIGN.md §13.4: at beam=1 only the greedy trajectory runs, so the seed
// is ignored and any two seeds give the same result, counters included.
TEST(SearchScheduleTest, BeamOneIgnoresSeed) {
  for (uint64_t seed = 3; seed <= 12; seed += 3) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.beam = 1;
    options.budget = 40;
    options.seed = 1;
    const SearchResult a = SearchSchedule(graph, gpu, profile, options);
    options.seed = 999;
    const SearchResult b = SearchSchedule(graph, gpu, profile, options);
    EXPECT_EQ(a.schedule.ToString(), b.schedule.ToString()) << seed;
    EXPECT_EQ(a.genotype, b.genotype) << seed;
    EXPECT_EQ(a.best_time, b.best_time) << seed;
    EXPECT_EQ(a.conventional_time, b.conventional_time) << seed;
    EXPECT_EQ(a.peak_memory, b.peak_memory) << seed;
    EXPECT_EQ(a.evaluations, b.evaluations) << seed;
    EXPECT_EQ(a.stats.sim_evals, b.stats.sim_evals) << seed;
    EXPECT_EQ(a.stats.analytic_evals, b.stats.analytic_evals) << seed;
    EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits) << seed;
    EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses) << seed;
    EXPECT_EQ(a.stats.memory_rejections, b.stats.memory_rejections) << seed;
  }
}

TEST(SearchScheduleTest, IdenticalOptionsAreByteIdentical) {
  Rng rng(42);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  SearchOptions options;
  options.beam = 3;
  options.seed = 17;
  options.budget = 30;
  const SearchResult a =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  const SearchResult b =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  EXPECT_EQ(a.schedule.ToString(), b.schedule.ToString());
  EXPECT_EQ(a.genotype, b.genotype);
  EXPECT_EQ(a.best_time, b.best_time);
  EXPECT_EQ(a.conventional_time, b.conventional_time);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(SearchScheduleTest, EnlargingBeamNeverWorsensBestScore) {
  for (uint64_t seed = 5; seed <= 20; seed += 5) {
    Rng rng(seed);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SystemProfile profile = SystemProfile::TensorFlowXla();

    SearchOptions options;
    options.seed = seed;
    options.budget = 20;
    TimeNs previous = 0;
    for (int beam = 1; beam <= 4; ++beam) {
      options.beam = beam;
      const SearchResult result = SearchSchedule(graph, gpu, profile, options);
      if (beam > 1) {
        EXPECT_LE(result.best_time, previous)
            << "seed " << seed << " beam " << beam;
      }
      previous = result.best_time;
    }
  }
}

TEST(SearchScheduleTest, ZeroBudgetReturnsConventional) {
  Rng rng(11);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  SearchOptions options;
  options.beam = 3;
  options.budget = 0;
  const SearchResult result =
      SearchSchedule(graph, GpuSpec::V100(), profile, options);
  EXPECT_EQ(result.schedule.ToString(),
            ConventionalIteration(graph).ToString());
  EXPECT_EQ(result.best_time, result.conventional_time);
}

// ScheduleEvaluator runs on SingleGpuEngine's exact executor, and on the
// event simulation when a validator observes the devices. Both must give
// the same score, and the validated run must see every kernel of the three
// simulated iterations finish with no invariant violated.
TEST(ScheduleEvaluatorTest, SameBitsInsideAndOutsideObserverScope) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const IterationSchedule schedules[] = {
        ConventionalIteration(graph),
        MakeOooSchedule(graph, gpu, profile).schedule};
    for (const IterationSchedule& schedule : schedules) {
      ScheduleEvaluator eval(&model, gpu, profile);
      const TimeNs outside = eval.IterationTime(schedule);
      SimValidator validator;
      TimeNs inside = 0;
      {
        ObserverScope scope(&validator);
        inside = eval.IterationTime(schedule);
      }
      EXPECT_EQ(inside, outside) << "seed " << seed;
      EXPECT_TRUE(validator.ok()) << validator.Summary();
      EXPECT_EQ(validator.gpus_observed(), 1);
      EXPECT_EQ(validator.kernels_finished(),
                static_cast<int64_t>(3 * schedule.ops.size()))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace oobp

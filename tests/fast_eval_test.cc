// Fidelity battery for the search's scorer (DESIGN.md §14).
//
// FastScheduleEvaluator is the time-only entry point of SingleGpuEngine's
// exact two-stream executor, reused across candidates, and
// ScheduleEvaluator outside a validator runs the same executor. So every
// reference here is the event path: ScheduleEvaluator inside a
// ObserverScope, which simulates every iteration on SimEngine, Gpu and
// CpuLauncher. The scores must be BIT-IDENTICAL to it — on zoo models, on
// fuzzed models, on arbitrary decodable genotypes, and across candidates
// that make one instance step different numbers of iterations.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/search/candidate_cache.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

// Mirrors the search property battery's fuzzed-model generator.
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "fast-eval-fuzz";
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

// The event path's score of `schedule`, under a validator that must see no
// invariant violated.
TimeNs EventPathTime(const NnModel& model, const GpuSpec& gpu,
                     const SystemProfile& profile,
                     const IterationSchedule& schedule) {
  SimValidator validator;
  TimeNs time = 0;
  {
    ObserverScope scope(&validator);
    time = ScheduleEvaluator(&model, gpu, profile).IterationTime(schedule);
  }
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  return time;
}

TEST(FastEvalTest, BitIdenticalToSimulatorOnZooModels) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  const GpuSpec gpu = GpuSpec::V100();
  const std::vector<NnModel> models = {
      DenseNet(121, 24, 32, 32),
      MobileNetV3Large(0.75, 32, 224),
      ResNet(50, 32),
  };
  for (const NnModel& model : models) {
    const TrainGraph graph(&model);
    FastScheduleEvaluator fast(&model, gpu, profile);
    Rng rng(2026);
    std::vector<IterationSchedule> schedules = {
        ConventionalIteration(graph)};
    for (int k = 0; k < 10; ++k) {
      schedules.push_back(DecodeGenotype(graph, RandomGenotype(graph, rng)));
    }
    for (const IterationSchedule& schedule : schedules) {
      EXPECT_EQ(fast.IterationTime(schedule),
                EventPathTime(model, gpu, profile, schedule))
          << model.name;
    }
  }
}

TEST(FastEvalTest, BitIdenticalToSimulatorOnFuzzedModels) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 1299709);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    FastScheduleEvaluator fast(&model, gpu, profile);
    for (int k = 0; k < 8; ++k) {
      const IterationSchedule schedule =
          DecodeGenotype(graph, RandomGenotype(graph, rng));
      ASSERT_EQ(fast.IterationTime(schedule),
                EventPathTime(model, gpu, profile, schedule))
          << "seed " << seed << " candidate " << k;
    }
  }
}

// A warm instance (its kernel-cost table and buffers filled by earlier
// candidates) must return the event path's bits under single-gene
// mutations, the access pattern the local search produces.
TEST(FastEvalTest, WarmInstanceMatchesEventPathUnderPointMutations) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 6700417);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    FastScheduleEvaluator warm(&model, gpu, profile);
    Genotype genotype = RandomGenotype(graph, rng);
    for (int step = 0; step < 30; ++step) {
      // Mutate one gene: slot bump or stream flip, clamped by the decoder.
      const size_t g = rng.NextBelow(genotype.size());
      if (rng.NextBelow(2) == 0) {
        genotype[g].slot += rng.NextBelow(2) == 0 ? 1 : -1;
      } else {
        genotype[g].stream = genotype[g].stream == kMainStream
                                 ? kSubStream
                                 : kMainStream;
      }
      const IterationSchedule schedule = DecodeGenotype(graph, genotype);
      ASSERT_EQ(warm.IterationTime(schedule),
                EventPathTime(model, gpu, profile, schedule))
          << "seed " << seed << " step " << step;
    }
  }
}

// One instance alternates between candidates whose run repeats the launch
// at barrier 0 (one iteration stepped) and candidates that never reach a
// clean barrier, because a dW/U pair issued after F_{L-1} on the main
// stream is still pending there (all three stepped). Nothing one run leaves
// behind may reach the next: every score is the event path's.
TEST(FastEvalTest, ReusedInstanceMatchesEventPathAcrossSteppedCounts) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  int stepped_all = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 15485863);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const GpuSpec gpu = RotatingGpu(seed);
    const SingleGpuEngine engine(ScoringConfig(gpu, profile));
    FastScheduleEvaluator fast(&model, gpu, profile);
    for (int k = 0; k < 8; ++k) {
      IterationSchedule schedule =
          DecodeGenotype(graph, RandomGenotype(graph, rng));
      const bool trailing_pair = k % 2 == 1;
      if (trailing_pair) {
        const auto dw = std::find_if(
            schedule.ops.begin(), schedule.ops.end(), [](const ScheduledOp& s) {
              return s.op.type == TrainOpType::kWeightGrad;
            });
        ASSERT_NE(dw, schedule.ops.end());
        const std::vector<ScheduledOp> pair(dw, dw + 2);  // dW_i, U_i
        schedule.ops.erase(dw, dw + 2);
        for (ScheduledOp op : pair) {
          op.stream = kMainStream;
          schedule.ops.push_back(op);
        }
      }
      ReplayStats stats;
      engine.Run(model, schedule, nullptr, &stats);
      ASSERT_TRUE(stats.executor);
      ASSERT_EQ(stats.simulated_iterations, trailing_pair ? 3 : 1)
          << "seed " << seed << " candidate " << k;
      stepped_all += trailing_pair;
      ASSERT_EQ(fast.IterationTime(schedule),
                EventPathTime(model, gpu, profile, schedule))
          << "seed " << seed << " candidate " << k;
    }
  }
  EXPECT_EQ(stepped_all, 48);
}

TEST(FastEvalTest, RepeatedEvaluationIsStable) {
  const SystemProfile profile = SystemProfile::TensorFlowXla();
  Rng rng(11);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);
  FastScheduleEvaluator fast(&model, GpuSpec::V100(), profile);
  const IterationSchedule schedule = ConventionalIteration(graph);
  const TimeNs first = fast.IterationTime(schedule);
  EXPECT_EQ(fast.IterationTime(schedule), first);
  EXPECT_EQ(fast.evaluations(), 2);
}

TEST(CandidateCacheTest, HitReturnsInsertedScoreAndCounts) {
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  const Genotype b = {{2, 1, kMainStream}, {0, 3, kMainStream}};
  EXPECT_EQ(cache.Lookup(a), nullptr);
  cache.Insert(a, {Ms(5), 1234});
  const CandidateCache::Score* hit = cache.Lookup(a);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->time, Ms(5));
  EXPECT_EQ(hit->peak, 1234);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CandidateCacheTest, HashIsContentAddressed) {
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  Genotype b = a;
  EXPECT_EQ(CandidateCache::Hash(a), CandidateCache::Hash(b));
  b[1].slot = 4;
  EXPECT_NE(CandidateCache::Hash(a), CandidateCache::Hash(b));
  EXPECT_NE(CandidateCache::Hash({}), CandidateCache::Hash(a));
}

TEST(CandidateCacheTest, PrecomputedHashOverloadsMatchDefault) {
  // The hot path hashes once and shares the value between the missing
  // lookup and the insert; the behavior must match the hashing overloads.
  CandidateCache cache;
  const Genotype a = {{2, 1, kSubStream}, {0, 3, kMainStream}};
  const uint64_t hash = CandidateCache::Hash(a);
  EXPECT_EQ(cache.Lookup(a, hash), nullptr);
  cache.Insert(a, {Ms(7), 99}, hash);
  const CandidateCache::Score* via_hash = cache.Lookup(a, hash);
  ASSERT_NE(via_hash, nullptr);
  EXPECT_EQ(via_hash->time, Ms(7));
  const CandidateCache::Score* via_default = cache.Lookup(a);
  ASSERT_NE(via_default, nullptr);
  EXPECT_EQ(via_default->peak, 99);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace oobp

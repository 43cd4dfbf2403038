// Unit tests for the validation layer: hook installation and restoration,
// clean runs staying clean, and — crucially — sensitivity: a validator that
// can never fire is worthless, so broken timelines, broken permutations and
// tampered memory timelines must all be flagged.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/joint_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/schedule.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/hw/validation_hooks.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/sim/engine.h"
#include "src/validate/fuzzer.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

NnModel SmallModel() {
  NnModel model;
  model.name = "tiny";
  model.batch = 16;
  model.layers.push_back(MakeConv2d("c0", "b0", 16, 8, 16, 16, 16, 3, 1));
  model.layers.push_back(MakePool("p0", "b0", 16, 16, 8, 8));
  model.layers.push_back(MakeConv2d("c1", "b1", 16, 16, 8, 8, 32, 3, 1));
  model.layers.push_back(MakeDense("fc", "b1", 16, 1, 128, 10));
  return model;
}

TEST(ValidationHooksTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(ActiveHwValidationHooks(), nullptr);
  SimValidator outer, inner;
  {
    ValidationScope a(&outer);
    EXPECT_EQ(ActiveHwValidationHooks(), &outer);
    {
      ValidationScope b(&inner);
      EXPECT_EQ(ActiveHwValidationHooks(), &inner);
    }
    EXPECT_EQ(ActiveHwValidationHooks(), &outer);
  }
  EXPECT_EQ(ActiveHwValidationHooks(), nullptr);
}

TEST(SimValidatorTest, CleanMultiStreamRunHasNoViolations) {
  SimValidator validator;
  {
    ValidationScope scope(&validator);
    SimEngine engine;
    Gpu gpu(&engine, GpuSpec::V100());
    const StreamId main = gpu.CreateStream(0);
    const StreamId sub = gpu.CreateStream(2);
    KernelDesc a;
    a.solo_duration = 1000;
    a.thread_blocks = 400;
    const KernelId ka = gpu.Enqueue(main, a);
    KernelDesc b;
    b.solo_duration = 2000;
    b.thread_blocks = 1400;
    b.deps.push_back(ka);
    gpu.Enqueue(sub, b);
    KernelDesc c;
    c.solo_duration = 500;
    c.thread_blocks = 1520;
    gpu.Enqueue(main, c);
    engine.Run();
    EXPECT_EQ(gpu.kernels_completed(), 3u);
  }
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  EXPECT_EQ(validator.gpus_observed(), 1);
  EXPECT_EQ(validator.kernels_finished(), 3);
}

TEST(SimValidatorTest, CleanLinkRunHasNoViolations) {
  SimValidator validator;
  int done = 0;
  {
    ValidationScope scope(&validator);
    SimEngine engine;
    Link link(&engine, LinkSpec::PcIe3(), /*chunk_bytes=*/64 << 10);
    link.Transfer(1 << 20, /*priority=*/1, "big", [&done] { ++done; });
    link.Transfer(4 << 10, /*priority=*/0, "small", [&done] { ++done; });
    engine.Run();
  }
  EXPECT_EQ(done, 2);
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  EXPECT_EQ(validator.links_observed(), 1);
  EXPECT_EQ(validator.transfers_completed(), 2);
}

// Sensitivity: feed the observer interface impossible event sequences and
// check each invariant actually fires.
TEST(SimValidatorTest, FlagsFinishWithoutStart) {
  SimValidator validator;
  SimEngine engine;
  Gpu gpu(&engine, GpuSpec::V100());  // no hooks installed
  const StreamId s = gpu.CreateStream(0);
  KernelDesc d;
  d.solo_duration = 100;
  d.thread_blocks = 1;
  validator.OnGpuCreated(&gpu);
  gpu.SetObserver(nullptr);  // drive the observer by hand
  const KernelId id = gpu.Enqueue(s, d);
  validator.OnKernelEnqueued(gpu, id, nullptr, 0);
  validator.OnKernelFinished(gpu, id);  // never started
  EXPECT_FALSE(validator.ok());
  EXPECT_NE(validator.Summary().find("finished without starting"),
            std::string::npos)
      << validator.Summary();
}

TEST(SimValidatorTest, FlagsEventsFromUnregisteredDevice) {
  SimValidator validator;
  SimEngine engine;
  Gpu gpu(&engine, GpuSpec::V100());
  validator.OnKernelStarted(gpu, 0);
  EXPECT_FALSE(validator.ok());
  EXPECT_NE(validator.Summary().find("unregistered"), std::string::npos);
}

TEST(SimValidatorTest, FlagsUnknownAndDuplicateTransferCompletion) {
  SimValidator validator;
  SimEngine engine;
  Link link(&engine, LinkSpec::NvLink());
  validator.OnLinkCreated(&link);
  link.SetObserver(nullptr);  // drive the observer by hand
  validator.OnTransferCompleted(link, 99);
  EXPECT_EQ(validator.total_violations(), 1);
  validator.OnTransferSubmitted(link, 1, 1024, 0);
  validator.OnTransferCompleted(link, 1);
  validator.OnTransferCompleted(link, 1);
  EXPECT_NE(validator.Summary().find("completed twice"), std::string::npos)
      << validator.Summary();
}

// The schedule checker accepts both canonical schedules of a real model...
TEST(ScheduleCheckerTest, AcceptsConventionalAndOooSchedules) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const IterationSchedule conv = ConventionalIteration(graph);
  EXPECT_TRUE(CheckIterationSchedule(graph, conv).ok())
      << CheckIterationSchedule(graph, conv).ToString();
  const JointScheduleResult ooo =
      MakeOooSchedule(graph, GpuSpec::V100(), SystemProfile::TensorFlowXla());
  EXPECT_TRUE(CheckIterationSchedule(graph, ooo.schedule).ok())
      << CheckIterationSchedule(graph, ooo.schedule).ToString();
}

// ...and rejects dependency-violating permutations of them.
TEST(ScheduleCheckerTest, RejectsBrokenPermutations) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const IterationSchedule conv = ConventionalIteration(graph);

  {
    IterationSchedule bad = conv;  // drop the last op: not a permutation
    bad.ops.pop_back();
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    IterationSchedule bad = conv;  // duplicate an op
    bad.ops.push_back(bad.ops.front());
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    // Swap two dO ops: descending order broken.
    IterationSchedule bad = conv;
    int first_do = -1, second_do = -1;
    for (size_t p = 0; p < bad.ops.size(); ++p) {
      if (bad.ops[p].op.type == TrainOpType::kOutputGrad) {
        if (first_do < 0) {
          first_do = static_cast<int>(p);
        } else if (second_do < 0) {
          second_do = static_cast<int>(p);
        }
      }
    }
    ASSERT_GE(second_do, 0);
    std::swap(bad.ops[static_cast<size_t>(first_do)],
              bad.ops[static_cast<size_t>(second_do)]);
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
  {
    // Move a dW in front of the dO that produces its input gradient.
    IterationSchedule bad = conv;
    size_t dw = 0;
    while (dw < bad.ops.size() &&
           !(bad.ops[dw].op.type == TrainOpType::kWeightGrad &&
             bad.ops[dw].op.layer + 1 < graph.num_layers())) {
      ++dw;
    }
    ASSERT_LT(dw, bad.ops.size());
    ScheduledOp moved = bad.ops[dw];
    bad.ops.erase(bad.ops.begin() + static_cast<long>(dw));
    bad.ops.insert(bad.ops.begin(), moved);
    EXPECT_FALSE(CheckIterationSchedule(graph, bad).ok());
  }
}

TEST(ScheduleCheckerTest, MemoryTimelineMatchesAndTamperIsCaught) {
  const NnModel model = SmallModel();
  const TrainGraph graph(&model);
  const std::vector<TrainOp> order =
      ConventionalIteration(graph).MergedOrder();
  MemoryTimeline tl = EstimateBackpropMemory(model, order);
  EXPECT_TRUE(CheckMemoryTimeline(model, order, tl).ok())
      << CheckMemoryTimeline(model, order, tl).ToString();

  MemoryTimeline tampered = tl;
  tampered.peak += 1;
  EXPECT_FALSE(CheckMemoryTimeline(model, order, tampered).ok());

  tampered = tl;
  ASSERT_FALSE(tampered.usage_during.empty());
  tampered.usage_during[tampered.usage_during.size() / 2] -= 1;
  EXPECT_FALSE(CheckMemoryTimeline(model, order, tampered).ok());
}

// A handful of pinned fuzzer seeds as a deterministic regression net; the
// deeper 200-seed sweep lives in tools/check.sh's fuzz-smoke tier.
TEST(FuzzerTest, PinnedSeedsAreClean) {
  std::vector<std::string> errors;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FuzzOneSeed(seed, "*", &errors);
  }
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(FuzzerTest, RunFuzzReportsSeedCount) {
  FuzzOptions opts;
  opts.base_seed = 100;
  opts.num_seeds = 3;
  const FuzzResult result = RunFuzz(opts);
  EXPECT_EQ(result.seeds_run, 3);
  EXPECT_TRUE(result.ok()) << result.errors.front();
}

}  // namespace
}  // namespace oobp

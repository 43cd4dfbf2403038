#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/region.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

SingleGpuConfig XlaConfig(bool precompiled) {
  SingleGpuConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.precompiled_issue = precompiled;
  config.measured_iterations = 2;
  return config;
}

TEST(SingleGpuEngineTest, DeterministicAcrossRuns) {
  const NnModel m = DenseNet(121, 12, 32, 32);
  const TrainGraph g(&m);
  const SingleGpuEngine engine(XlaConfig(false));
  const TrainMetrics a = engine.Run(m, ConventionalIteration(g));
  const TrainMetrics b = engine.Run(m, ConventionalIteration(g));
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
}

TEST(SingleGpuEngineTest, PrecompiledIssueNeverSlower) {
  for (NnModel m : {DenseNet(121, 12, 32, 32), MobileNetV3Large(0.25, 32),
                    ResNet(50, 32)}) {
    const TrainGraph g(&m);
    const TrainMetrics per_op =
        SingleGpuEngine(XlaConfig(false)).Run(m, ConventionalIteration(g));
    const TrainMetrics pre =
        SingleGpuEngine(XlaConfig(true)).Run(m, ConventionalIteration(g));
    EXPECT_LE(pre.iteration_time, per_op.iteration_time + Us(50)) << m.name;
  }
}

TEST(SingleGpuEngineTest, IssueBoundModelGainsFromPrecompiledIssue) {
  // DenseNet-121 with growth 12 on CIFAR is CPU-bound (Section 8.2: 1.54x
  // total for k=12, batch 32); pre-compiled issue alone must give a
  // substantial chunk.
  const NnModel m = DenseNet(121, 12, 32, 32);
  const TrainGraph g(&m);
  const TrainMetrics per_op =
      SingleGpuEngine(XlaConfig(false)).Run(m, ConventionalIteration(g));
  const TrainMetrics pre =
      SingleGpuEngine(XlaConfig(true)).Run(m, ConventionalIteration(g));
  EXPECT_GT(pre.throughput / per_op.throughput, 1.15);
}

TEST(SingleGpuEngineTest, MultiStreamOooBeatsConventional) {
  const NnModel m = DenseNet(121, 32, 32, /*image=*/224);
  const TrainGraph g(&m);
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(g, cost, BuildRegions(g));
  const JointScheduleResult ooo = MultiRegionJointSchedule(g, profiler);

  const SingleGpuEngine engine(XlaConfig(true));
  const TrainMetrics base = engine.Run(m, ConventionalIteration(g));
  const TrainMetrics multi = engine.Run(m, ooo.schedule);
  EXPECT_GT(multi.throughput, base.throughput);
}

TEST(SingleGpuEngineTest, NaiveSubStreamIsBetweenBaselineAndJoint) {
  const NnModel m = DenseNet(121, 32, 32, /*image=*/224);
  const TrainGraph g(&m);
  const SingleGpuEngine engine(XlaConfig(true));
  const TrainMetrics base = engine.Run(m, ConventionalIteration(g));
  const TrainMetrics naive = engine.Run(m, NaiveSubStreamIteration(g));
  // The paper: naive sub-stream gives "a decent speedup" without joint
  // scheduling (1.39x of the 1.54x for DenseNet).
  EXPECT_GE(naive.throughput, base.throughput * 0.99);
}

TEST(SingleGpuEngineTest, UtilizationWithinBounds) {
  const NnModel m = ResNet(50, 32);
  const TrainGraph g(&m);
  const TrainMetrics metrics =
      SingleGpuEngine(XlaConfig(true)).Run(m, ConventionalIteration(g));
  EXPECT_GT(metrics.gpu_utilization, 0.0);
  EXPECT_LE(metrics.gpu_utilization, 1.0);
}

TEST(SingleGpuEngineTest, OomDetectedOnTinyGpu) {
  SingleGpuConfig config = XlaConfig(true);
  config.gpu.mem_bytes = 256LL << 20;  // 256 MB device
  const NnModel m = ResNet(50, 64);
  const TrainGraph g(&m);
  const TrainMetrics metrics =
      SingleGpuEngine(config).Run(m, ConventionalIteration(g));
  EXPECT_TRUE(metrics.oom);
}

TEST(SingleGpuEngineTest, LargerBatchMoreThroughputPerIteration) {
  const TrainGraph* unused = nullptr;
  (void)unused;
  const NnModel m32 = ResNet(50, 32);
  const NnModel m64 = ResNet(50, 64);
  const TrainGraph g32(&m32);
  const TrainGraph g64(&m64);
  const SingleGpuEngine engine(XlaConfig(true));
  const TrainMetrics a = engine.Run(m32, ConventionalIteration(g32));
  const TrainMetrics b = engine.Run(m64, ConventionalIteration(g64));
  // Throughput improves with batch (fixed overheads amortize).
  EXPECT_GT(b.throughput, a.throughput * 0.95);
  EXPECT_GT(b.iteration_time, a.iteration_time);
}

TEST(SingleGpuEngineTest, TraceCoversBothStreams) {
  const NnModel m = DenseNet(121, 32, 32, /*image=*/224);
  const TrainGraph g(&m);
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(g, cost, BuildRegions(g));
  const JointScheduleResult ooo = MultiRegionJointSchedule(g, profiler);
  TraceRecorder trace;
  SingleGpuEngine(XlaConfig(true)).Run(m, ooo.schedule, &trace);
  EXPECT_FALSE(trace.TrackEvents(0).empty());  // main stream
  EXPECT_FALSE(trace.TrackEvents(1).empty());  // sub stream
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void ExpectBitwiseEqual(const TrainMetrics& a, const TrainMetrics& b) {
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(Bits(a.throughput), Bits(b.throughput));
  EXPECT_EQ(Bits(a.gpu_utilization), Bits(b.gpu_utilization));
  EXPECT_EQ(Bits(a.comm_comp_ratio), Bits(b.comm_comp_ratio));
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.oom, b.oom);
}

// Unobserved runs take the exact executor; runs that a trace recorder or
// the SimValidator observes take the event path, which simulates every
// iteration. The executor steps at most two iterations, and all three report
// the same metrics, bit for bit, both for a short run and for a long one.
TEST(SingleGpuEngineTest, ExecutorRunsOnlyWhenNothingObservesTheDevices) {
  const NnModel m = DenseNet(121, 24, 32, 32);
  const TrainGraph g(&m);
  const JointScheduleResult ooo =
      MakeOooSchedule(g, GpuSpec::V100(), SystemProfile::TensorFlowXla());
  for (const bool precompiled : {false, true}) {
    for (const int measured : {3, 24}) {
      SingleGpuConfig config = XlaConfig(precompiled);
      config.measured_iterations = measured;
      const SingleGpuEngine engine(config);

      ReplayStats plain_stats;
      const TrainMetrics plain =
          engine.Run(m, ooo.schedule, nullptr, &plain_stats);
      EXPECT_TRUE(plain_stats.executor);
      EXPECT_TRUE(plain_stats.replayed);
      EXPECT_LE(plain_stats.simulated_iterations, 2);

      ReplayStats traced_stats;
      TraceRecorder trace;
      const TrainMetrics traced =
          engine.Run(m, ooo.schedule, &trace, &traced_stats);
      EXPECT_FALSE(traced_stats.executor);
      EXPECT_FALSE(trace.TrackEvents(0).empty());

      ReplayStats validated_stats;
      SimValidator validator;
      TrainMetrics validated;
      {
        ObserverScope scope(&validator);
        validated = engine.Run(m, ooo.schedule, nullptr, &validated_stats);
      }
      EXPECT_FALSE(validated_stats.executor);
      EXPECT_EQ(validated_stats.simulated_iterations, measured + 1);
      EXPECT_TRUE(validator.ok()) << validator.Summary();
      EXPECT_EQ(validator.kernels_finished(),
                static_cast<int64_t>(ooo.schedule.ops.size()) *
                    (measured + 1));

      ExpectBitwiseEqual(plain, traced);
      ExpectBitwiseEqual(plain, validated);
    }
  }
}

// Three layers: conv or (with `pool_first`) a parameter-free pool, conv,
// dense.
NnModel ThreeLayerModel(bool pool_first) {
  NnModel model;
  model.name = "three-layer";
  model.batch = 8;
  model.layers.push_back(pool_first
                             ? MakePool("l0", "b0", 8, 16, 8, 8)
                             : MakeConv2d("l0", "b0", 8, 16, 8, 8, 16, 3, 1));
  model.layers.push_back(MakeConv2d("l1", "b0", 8, 16, 8, 8, 16, 3, 1));
  model.layers.push_back(MakeDense("l2", "b1", 8, 1, 64, 64));
  return model;
}

ScheduledOp Op(TrainOpType type, int layer, int stream = kMainStream,
               int wait_for_index = -1) {
  return {{type, layer}, stream, wait_for_index};
}

constexpr TrainOpType kF = TrainOpType::kForward;
constexpr TrainOpType kDO = TrainOpType::kOutputGrad;
constexpr TrainOpType kDW = TrainOpType::kWeightGrad;
constexpr TrainOpType kU = TrainOpType::kWeightUpdate;

// What IterationDeps must give for one position.
struct WantDeps {
  std::vector<int> dep;  // same-iteration positions, in wait order
  bool prev_fwd = false;
};

// Checks IterationDeps position by position, then the dependency lists of
// BuildTrainIssuePlan over two iterations: item t*n + p waits on
// (t-1)*n + last_fwd first when it waits on the previous F_{L-1}, then on
// t*n + q for each same-iteration q.
void ExpectDeps(const NnModel& model, const IterationSchedule& schedule,
                const std::vector<WantDeps>& want, int last_fwd) {
  const size_t n = schedule.ops.size();
  ASSERT_EQ(want.size(), n);
  const ScheduleDeps deps = IterationDeps(schedule, model.num_layers());
  ASSERT_EQ(deps.ops.size(), n);
  EXPECT_EQ(deps.last_fwd, last_fwd);
  for (size_t p = 0; p < n; ++p) {
    std::vector<int> got;
    for (const int q : deps.ops[p].dep) {
      if (q >= 0) {
        got.push_back(q);
      }
    }
    EXPECT_EQ(got, want[p].dep) << "position " << p;
    EXPECT_EQ(deps.ops[p].prev_fwd, want[p].prev_fwd) << "position " << p;
  }

  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const TrainIssuePlan plan =
      BuildTrainIssuePlan(model, schedule, cost, /*iterations=*/2,
                          /*main_stream=*/0, /*sub_stream=*/1);
  ASSERT_EQ(plan.items.size(), 2 * n);
  EXPECT_EQ(plan.iter_last_item, (std::vector<int>{static_cast<int>(n) - 1,
                                                   static_cast<int>(2 * n) - 1}));
  for (size_t t = 0; t < 2; ++t) {
    for (size_t p = 0; p < n; ++p) {
      std::vector<size_t> expected;
      if (want[p].prev_fwd && t > 0) {
        expected.push_back((t - 1) * n + static_cast<size_t>(last_fwd));
      }
      for (const int q : want[p].dep) {
        expected.push_back(t * n + static_cast<size_t>(q));
      }
      const IssueItem& item = plan.items[t * n + p];
      EXPECT_EQ(std::vector<size_t>(item.dep_items,
                                    item.dep_items + item.num_deps),
                expected)
          << "iteration " << t << " position " << p;
      EXPECT_EQ(item.stream, schedule.ops[p].stream);
    }
  }
}

TEST(IterationDepsTest, ConventionalSchedule) {
  const NnModel model = ThreeLayerModel(/*pool_first=*/false);
  IterationSchedule schedule;
  schedule.ops = {Op(kDO, 2), Op(kDW, 2), Op(kU, 2), Op(kDO, 1),
                  Op(kDW, 1), Op(kU, 1),  Op(kDO, 0), Op(kDW, 0),
                  Op(kU, 0),  Op(kF, 0),  Op(kF, 1),  Op(kF, 2)};
  ExpectDeps(model, schedule,
             {{{}, true},      // dO2: the previous iteration's F2
              {{}, true},      // dW2: likewise
              {{1}},           // U2 <- dW2
              {{0}},           // dO1 <- dO2
              {{0}},           // dW1 <- dO2
              {{4}},           // U1 <- dW1
              {{3}},           // dO0 <- dO1
              {{3}},           // dW0 <- dO1
              {{7}},           // U0 <- dW0
              {{8}},           // F0 <- U0
              {{9, 5}},        // F1 <- F0, U1
              {{10, 2}}},      // F2 <- F1, U2
             /*last_fwd=*/11);
}

TEST(IterationDepsTest, OutOfOrderScheduleWithStreamWaits) {
  const NnModel model = ThreeLayerModel(/*pool_first=*/false);
  IterationSchedule schedule;
  schedule.ops = {Op(kDO, 2),
                  Op(kDO, 1),
                  Op(kDO, 0),
                  Op(kDW, 2, kSubStream, /*wait_for_index=*/1),
                  Op(kU, 2, kSubStream),
                  Op(kDW, 1, kSubStream),
                  Op(kU, 1, kSubStream),
                  Op(kDW, 0, kSubStream, /*wait_for_index=*/2),
                  Op(kU, 0, kSubStream),
                  Op(kF, 0),
                  Op(kF, 1),
                  Op(kF, 2)};
  ExpectDeps(model, schedule,
             {{{}, true},      // dO2
              {{0}},           // dO1 <- dO2
              {{1}},           // dO0 <- dO1
              {{1}, true},     // dW2: previous F2, then its wait on dO1
              {{3}},           // U2 <- dW2
              {{0}},           // dW1 <- dO2
              {{5}},           // U1 <- dW1
              {{1, 2}},        // dW0 <- dO1, then its wait on dO0
              {{7}},           // U0 <- dW0
              {{8}},           // F0 <- U0
              {{9, 6}},        // F1 <- F0, U1
              {{10, 4}}},      // F2 <- F1, U2
             /*last_fwd=*/11);
  // Spelled out for iteration 1: the previous F2 comes first.
  const CostModel cost(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const TrainIssuePlan plan = BuildTrainIssuePlan(
      model, schedule, cost, 2, /*main_stream=*/0, /*sub_stream=*/1);
  const IssueItem& dw2 = plan.items[12 + 3];
  ASSERT_EQ(dw2.num_deps, 2);
  EXPECT_EQ(dw2.dep_items[0], 11u);
  EXPECT_EQ(dw2.dep_items[1], 13u);
}

TEST(IterationDepsTest, ParameterFreeFirstLayer) {
  const NnModel model = ThreeLayerModel(/*pool_first=*/true);
  ASSERT_FALSE(model.layers[0].has_params());
  IterationSchedule schedule;
  schedule.ops = {Op(kDO, 2), Op(kDW, 2), Op(kU, 2), Op(kDO, 1), Op(kDW, 1),
                  Op(kU, 1),  Op(kDO, 0), Op(kF, 0), Op(kF, 1),  Op(kF, 2)};
  ExpectDeps(model, schedule,
             {{{}, true},      // dO2
              {{}, true},      // dW2
              {{1}},           // U2 <- dW2
              {{0}},           // dO1 <- dO2
              {{0}},           // dW1 <- dO2
              {{4}},           // U1 <- dW1
              {{3}},           // dO0 <- dO1
              {{}},            // F0: no update, no input layer
              {{7, 5}},        // F1 <- F0, U1
              {{8, 2}}},       // F2 <- F1, U2
             /*last_fwd=*/9);
}

TEST(IterationDepsDeathTest, WeightGradientBeforeItsOutputGradient) {
  const NnModel model = ThreeLayerModel(/*pool_first=*/false);
  IterationSchedule schedule;
  schedule.ops = {Op(kDW, 1), Op(kDO, 2), Op(kDO, 1)};
  EXPECT_DEATH(IterationDeps(schedule, model.num_layers()),
               "dW\\[1\\] issued before dO\\[2\\]");
}

TEST(SingleGpuEngineDeathTest, EmptyScheduleFailsClosedNamingTheModel) {
  const NnModel m = ResNet(50, 32);
  const SingleGpuEngine engine(XlaConfig(true));
  EXPECT_DEATH(engine.Run(m, IterationSchedule{}),
               "empty schedule for model 'ResNet-50'");
}

}  // namespace
}  // namespace oobp

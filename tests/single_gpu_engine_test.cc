#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/region.h"
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

// Untraced runs take the exact executor; traced runs and runs under the
// SimValidator take the event path. All three report the same metrics, bit
// for bit, both for a short run and for a replayed one.
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
      EXPECT_EQ(plain_stats.replayed, measured == 24);

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
        ValidationScope scope(&validator);
        validated = engine.Run(m, ooo.schedule, nullptr, &validated_stats);
      }
      EXPECT_FALSE(validated_stats.executor);
      EXPECT_EQ(validated_stats.replayed, plain_stats.replayed);
      EXPECT_EQ(validated_stats.simulated_iterations,
                plain_stats.simulated_iterations);
      EXPECT_TRUE(validator.ok()) << validator.Summary();
      EXPECT_EQ(validator.kernels_finished(),
                static_cast<int64_t>(ooo.schedule.ops.size()) *
                    validated_stats.simulated_iterations);

      ExpectBitwiseEqual(plain, traced);
      ExpectBitwiseEqual(plain, validated);
    }
  }
}

TEST(SingleGpuEngineDeathTest, EmptyScheduleFailsClosedNamingTheModel) {
  const NnModel m = ResNet(50, 32);
  const SingleGpuEngine engine(XlaConfig(true));
  EXPECT_DEATH(engine.Run(m, IterationSchedule{}),
               "empty schedule for model 'ResNet-50'");
}

}  // namespace
}  // namespace oobp

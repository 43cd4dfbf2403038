// Differential tests for steady-state iteration replay (DESIGN.md §9) and
// for the two producers replay consumes (DESIGN.md §6.3).
//
// The replay fast path truncates a multi-iteration training run to a short
// steady-state window and extrapolates the remaining iterations. Its
// contract is EXACTNESS, not approximation: every reported metric —
// including the floating-point utilization, whose busy integral is a
// sequence of double additions — must be bitwise identical to the full
// event-driven simulation. These tests run both paths over fixed and
// randomized models and compare with EXPECT_EQ (no tolerance anywhere).
// The unreplayed reference is a traced run: a trace must hold every event,
// so traced runs never replay.
//
// The single-GPU outcome itself has two producers: the event simulation
// and the exact two-stream executor. The differential battery below runs
// both over 4,032 configurations and compares every outcome field bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/runtime/train_sim.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace oobp {
namespace {

void ExpectBitwiseEqual(const TrainMetrics& a, const TrainMetrics& b,
                        const std::string& what) {
  EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization) << what;  // FP-exact
  EXPECT_EQ(a.comm_comp_ratio, b.comm_comp_ratio) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.oom, b.oom) << what;
}

// A small random model in the fuzzer's style: independent layer dimensions,
// block names in short groups (what region splitting keys on).
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "replay-fuzz";
  model.batch = 8 << rng.NextBelow(3);
  const int L = 3 + static_cast<int>(rng.NextBelow(7));
  for (int i = 0; i < L; ++i) {
    const std::string name = StrFormat("l%d", i);
    const std::string blk = StrFormat("block%d", i / 2);
    const int c = 8 << rng.NextBelow(3);
    const int hw = 8 << rng.NextBelow(2);
    if (rng.NextBelow(3) != 0) {
      model.layers.push_back(MakeConv2d(name, blk, model.batch, c, hw, hw,
                                        8 + static_cast<int>(rng.NextBelow(25)),
                                        3, 1));
    } else {
      model.layers.push_back(MakeDense(name, blk, model.batch, 1,
                                       64 << rng.NextBelow(2),
                                       64 << rng.NextBelow(2)));
    }
  }
  return model;
}

SingleGpuConfig SingleGpuCfg(int measured) {
  SingleGpuConfig cfg;
  cfg.gpu = GpuSpec::V100();
  cfg.profile = SystemProfile::TensorFlowXla();
  cfg.precompiled_issue = true;
  cfg.measured_iterations = measured;
  return cfg;
}

// A full simulation of every iteration: the traced run.
TrainMetrics Unreplayed(const SingleGpuConfig& cfg, const NnModel& model,
                        const IterationSchedule& schedule) {
  TraceRecorder trace;
  ReplayStats stats;
  const TrainMetrics metrics =
      SingleGpuEngine(cfg).Run(model, schedule, &trace, &stats);
  EXPECT_FALSE(stats.attempted);
  EXPECT_EQ(stats.simulated_iterations, stats.total_iterations);
  return metrics;
}

TEST(SteadyReplayTest, SingleGpuReplayIsBitwiseExact) {
  Rng rng(2024);
  int replays = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const IterationSchedule conv = ConventionalIteration(graph);
    const JointScheduleResult ooo =
        MakeOooSchedule(graph, GpuSpec::V100(), SystemProfile::TensorFlowXla());
    for (const IterationSchedule* schedule : {&conv, &ooo.schedule}) {
      // 20 measured iterations exceeds every replay window for these models
      // (window = 6 + ceil(issue_queue_depth / ops_per_iter)).
      ReplayStats on_stats;
      const TrainMetrics with_replay =
          SingleGpuEngine(SingleGpuCfg(20))
              .Run(model, *schedule, nullptr, &on_stats);
      const TrainMetrics without_replay =
          Unreplayed(SingleGpuCfg(20), model, *schedule);
      ExpectBitwiseEqual(with_replay, without_replay,
                         StrFormat("trial %d", trial));
      EXPECT_TRUE(on_stats.attempted);
      if (on_stats.replayed) {
        ++replays;
        EXPECT_LT(on_stats.simulated_iterations, on_stats.total_iterations);
        EXPECT_TRUE(on_stats.fallback_reason.empty());
      }
    }
  }
  // The point of the fast path: steady training timelines ARE periodic, so
  // replay must engage on (at least most of) these runs.
  EXPECT_GE(replays, 12);
}

TEST(SteadyReplayTest, SingleGpuZooModelsReplayExactly) {
  for (const NnModel& model : {ResNet(50, 32), DenseNet(121, 24, 32, 32)}) {
    const TrainGraph graph(&model);
    const JointScheduleResult ooo =
        MakeOooSchedule(graph, GpuSpec::V100(), SystemProfile::TensorFlowXla());
    ReplayStats stats;
    const TrainMetrics with_replay =
        SingleGpuEngine(SingleGpuCfg(24))
            .Run(model, ooo.schedule, nullptr, &stats);
    const TrainMetrics without_replay =
        Unreplayed(SingleGpuCfg(24), model, ooo.schedule);
    ExpectBitwiseEqual(with_replay, without_replay, model.name);
    EXPECT_TRUE(stats.replayed) << model.name;
    EXPECT_LT(stats.simulated_iterations, stats.total_iterations);
  }
}

TEST(SteadyReplayTest, SingleGpuFallbacks) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  const IterationSchedule schedule = ConventionalIteration(graph);

  // Short runs (the default 3 measured iterations of every fig07 scenario)
  // never attempt replay — this is what keeps the existing goldens frozen.
  ReplayStats short_stats;
  SingleGpuEngine(SingleGpuCfg(3))
      .Run(model, schedule, nullptr, &short_stats);
  EXPECT_FALSE(short_stats.attempted);
  EXPECT_EQ(short_stats.fallback_reason, "short-run");

  // Traced runs need every event, so replay is bypassed.
  ReplayStats trace_stats;
  TraceRecorder trace;
  SingleGpuEngine(SingleGpuCfg(24))
      .Run(model, schedule, &trace, &trace_stats);
  EXPECT_FALSE(trace_stats.attempted);
  EXPECT_EQ(trace_stats.fallback_reason, "traced");
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// The first field in which two outcomes differ, or "" if none does. Every
// comparison is exact: times as integers, doubles by their bits.
std::string OutcomeDiff(const TrainSimOutcome& a, const TrainSimOutcome& b) {
  if (a.iter_end != b.iter_end) {
    return "iter_end";
  }
  if (Bits(a.busy_integral) != Bits(b.busy_integral)) {
    return StrFormat("busy_integral %.17g vs %.17g", a.busy_integral,
                     b.busy_integral);
  }
  if (a.item_start != b.item_start) {
    return "item_start";
  }
  if (a.item_done != b.item_done) {
    return "item_done";
  }
  if (a.increments.size() != b.increments.size()) {
    return StrFormat("%zu vs %zu increments", a.increments.size(),
                     b.increments.size());
  }
  for (size_t k = 0; k < a.increments.size(); ++k) {
    if (a.increments[k].time != b.increments[k].time ||
        Bits(a.increments[k].value) != Bits(b.increments[k].value)) {
      return StrFormat("increment %zu", k);
    }
  }
  if (a.events != b.events) {
    return StrFormat("%llu vs %llu events",
                     static_cast<unsigned long long>(a.events),
                     static_cast<unsigned long long>(b.events));
  }
  return "";
}

// Compares outcomes, not metrics: a metric can hide a reordered event. Two
// deliberately wrong executors show it. One that begins same-instant
// kernels in stream order instead of dispatch order leaves every iteration
// end and busy integral here unchanged, yet moves item starts or increments
// in 588 of the 2,688 configurations at 4 and 7 iterations. One that folds
// busy contributions in priority order instead of job-seq order moves the
// busy integral in 100 and the increments in 1,252 of them. Both fail here.
TEST(SteadyReplayTest, ExecutorMatchesEventPathOnFullOutcomes) {
  std::vector<NnModel> models = {
      DenseNet(121, 24, 32, 32), DenseNet(169, 32, 32, 32),
      MobileNetV3Large(0.75, 32, 224), ResNet(50, 32, 224),
      ResNet(101, 32, 224), Bert(12, 8)};
  Rng rng(1717);
  for (int r = 0; r < 8; ++r) {
    models.push_back(RandomModel(rng));
  }
  // Zero setup gap: a dispatched kernel begins at its dispatch instant,
  // alongside the completion that dispatched it.
  GpuSpec no_gap = GpuSpec::V100();
  no_gap.kernel_exec_overhead = 0;
  const std::vector<GpuSpec> gpus = {GpuSpec::V100(), GpuSpec::P100(),
                                     GpuSpec::TitanXp(), no_gap};
  // Queue depth 0: per-op issue never blocks.
  SystemProfile unbounded = SystemProfile::TensorFlow();
  unbounded.issue_queue_depth = 0;
  const std::vector<SystemProfile> profiles = {
      SystemProfile::TensorFlowXla(), SystemProfile::PyTorchNimble(),
      SystemProfile::TensorFlow(), unbounded};

  int configs = 0;
  int mismatches = 0;
  for (const NnModel& model : models) {
    const TrainGraph graph(&model);
    const IterationSchedule conv = ConventionalIteration(graph);
    const IterationSchedule naive = NaiveSubStreamIteration(graph);
    for (size_t g = 0; g < gpus.size(); ++g) {
      for (size_t p = 0; p < profiles.size(); ++p) {
        const CostModel cost(gpus[g], profiles[p]);
        const IterationSchedule ooo =
            MakeOooSchedule(graph, gpus[g], profiles[p]).schedule;
        const IterationSchedule* schedules[] = {&conv, &ooo, &naive};
        for (int k = 0; k < 3; ++k) {
          for (bool precompiled : {false, true}) {
            // 3 is ScheduleEvaluator's run: one warm-up, two measured.
            for (int iterations : {3, 4, 7}) {
              SingleGpuConfig cfg;
              cfg.gpu = gpus[g];
              cfg.profile = profiles[p];
              cfg.precompiled_issue = precompiled;
              const TrainSimOutcome event =
                  SimulateTraining(cfg, cost, model, *schedules[k], iterations,
                                   /*trace=*/nullptr, /*record=*/true);
              const TrainSimOutcome exec = ExecuteTraining(
                  cfg, cost, model, *schedules[k], iterations, true);
              ++configs;
              const std::string diff = OutcomeDiff(event, exec);
              if (!diff.empty() && ++mismatches <= 5) {
                ADD_FAILURE() << model.name << " gpu " << g << " profile "
                              << p << " schedule " << k << " precompiled "
                              << precompiled << " iterations " << iterations
                              << ": " << diff;
              }
            }
          }
        }
        // Unrecorded runs fill only the iteration ends, the busy integral
        // and the event count.
        const TrainSimOutcome event = SimulateTraining(
            SingleGpuCfg(3), cost, model, ooo, 4, nullptr, false);
        const TrainSimOutcome exec = ExecuteTraining(
            SingleGpuCfg(3), cost, model, ooo, 4, false);
        EXPECT_TRUE(exec.item_start.empty() && exec.increments.empty());
        EXPECT_EQ(OutcomeDiff(event, exec), "") << model.name;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << configs << " configurations";
  EXPECT_EQ(configs, 4032);
}

TEST(SteadyReplayTest, ExecutorCountsEventsIntoTheProcessWideTally) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  const IterationSchedule schedule = ConventionalIteration(graph);
  const SingleGpuConfig cfg = SingleGpuCfg(3);
  const CostModel cost(cfg.gpu, cfg.profile);
  const uint64_t before = SimEngine::TotalProcessedEvents();
  const TrainSimOutcome exec =
      ExecuteTraining(cfg, cost, model, schedule, 4, false);
  EXPECT_GT(exec.events, 0u);
  EXPECT_EQ(SimEngine::TotalProcessedEvents() - before, exec.events);
}

PipelineConfig PipeCfg(int measured) {
  PipelineConfig cfg;
  cfg.cluster = ClusterSpec::PubB(5);
  cfg.num_gpus = 4;
  cfg.num_micro_batches = 4;
  cfg.measured_iterations = measured;
  return cfg;
}

TEST(SteadyReplayTest, PipelineContinuousReplayIsExact) {
  const NnModel micro = Bert(12, 8);
  ReplayStats on_stats;
  const PipelineResult with_replay =
      PipelineEngine(PipeCfg(16))
          .Run(micro, PipelineStrategy::kPipeDream, nullptr, &on_stats);
  TraceRecorder trace;
  ReplayStats off_stats;
  const PipelineResult without_replay =
      PipelineEngine(PipeCfg(16))
          .Run(micro, PipelineStrategy::kPipeDream, &trace, &off_stats);
  EXPECT_EQ(off_stats.fallback_reason, "traced");
  ExpectBitwiseEqual(with_replay.metrics, without_replay.metrics, "pipedream");
  EXPECT_EQ(with_replay.weight_versions, without_replay.weight_versions);
  EXPECT_EQ(with_replay.per_gpu_peak_memory,
            without_replay.per_gpu_peak_memory);
  EXPECT_EQ(with_replay.fwd_start, without_replay.fwd_start);
  EXPECT_EQ(with_replay.wgrad_done, without_replay.wgrad_done);
  EXPECT_TRUE(on_stats.replayed);
  EXPECT_LT(on_stats.simulated_iterations, on_stats.total_iterations);
}

TEST(SteadyReplayTest, PipelineSynchronousStrategiesFallBack) {
  const NnModel micro = Bert(12, 8);
  // Flush-per-iteration strategies simulate exactly one iteration — there is
  // no steady stream to extrapolate.
  ReplayStats stats;
  PipelineEngine(PipeCfg(16))
      .Run(micro, PipelineStrategy::kGPipe, nullptr, &stats);
  EXPECT_FALSE(stats.attempted);
  EXPECT_EQ(stats.fallback_reason, "synchronous");

  ReplayStats short_stats;
  PipelineEngine(PipeCfg(3))
      .Run(micro, PipelineStrategy::kPipeDream, nullptr, &short_stats);
  EXPECT_FALSE(short_stats.attempted);
  EXPECT_EQ(short_stats.fallback_reason, "short-run");
}

}  // namespace
}  // namespace oobp

// Differential tests for the single-GPU barrier shortcut and the pipeline's
// boundary rule (DESIGN.md §9.2), and for the two single-GPU producers they
// run on (DESIGN.md §6.3).
//
// The single-GPU executor stops stepping at the first clean barrier that
// repeats the one before it (src/core/schedule.h) and extrapolates the
// remaining iterations. Its contract is EXACTNESS, not approximation: every
// reported metric — including the floating-point utilization, whose busy
// integral is a sequence of double additions — must be bitwise identical to
// the event simulation, which steps every iteration. These tests run both
// over fixed and randomized models and compare with EXPECT_EQ (no
// tolerance anywhere). The reference is a traced run: a trace must hold
// every event, so traced runs take the event path.

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
#include "src/search/search.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"
#include "src/validate/sim_validator.h"

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

SingleGpuConfig SingleGpuCfg(int measured, bool precompiled = true) {
  SingleGpuConfig cfg;
  cfg.gpu = GpuSpec::V100();
  cfg.profile = SystemProfile::TensorFlowXla();
  cfg.precompiled_issue = precompiled;
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
  for (int trial = 0; trial < 8; ++trial) {
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);
    const IterationSchedule conv = ConventionalIteration(graph);
    const JointScheduleResult ooo =
        MakeOooSchedule(graph, GpuSpec::V100(), SystemProfile::TensorFlowXla());
    for (const IterationSchedule* schedule : {&conv, &ooo.schedule}) {
      for (const bool precompiled : {false, true}) {
        ReplayStats on_stats;
        const TrainMetrics with_replay =
            SingleGpuEngine(SingleGpuCfg(20, precompiled))
                .Run(model, *schedule, nullptr, &on_stats);
        const TrainMetrics without_replay =
            Unreplayed(SingleGpuCfg(20, precompiled), model, *schedule);
        const std::string what =
            StrFormat("trial %d precompiled %d", trial, precompiled);
        ExpectBitwiseEqual(with_replay, without_replay, what);
        // Steady training timelines repeat at every barrier: a precompiled
        // run steps one iteration, a per-op run two.
        EXPECT_TRUE(on_stats.attempted) << what;
        EXPECT_TRUE(on_stats.replayed) << what;
        EXPECT_EQ(on_stats.simulated_iterations, precompiled ? 1 : 2) << what;
        EXPECT_TRUE(on_stats.fallback_reason.empty()) << what;
      }
    }
  }
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
    EXPECT_EQ(stats.simulated_iterations, 1) << model.name;
  }
}

// The event path simulates every iteration, traced or validated; the
// executor steps at most two; the metrics are the same bits.
TEST(SteadyReplayTest, SingleGpuFallbacks) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  const IterationSchedule schedule = ConventionalIteration(graph);
  for (const bool precompiled : {false, true}) {
    for (const int measured : {3, 24}) {
      const SingleGpuEngine engine(SingleGpuCfg(measured, precompiled));
      const std::string what =
          StrFormat("precompiled %d, %d measured", precompiled, measured);

      ReplayStats plain_stats;
      const TrainMetrics plain =
          engine.Run(model, schedule, nullptr, &plain_stats);
      EXPECT_TRUE(plain_stats.executor) << what;
      EXPECT_LE(plain_stats.simulated_iterations, 2) << what;

      ReplayStats trace_stats;
      TraceRecorder trace;
      const TrainMetrics traced =
          engine.Run(model, schedule, &trace, &trace_stats);
      EXPECT_FALSE(trace_stats.attempted) << what;
      EXPECT_EQ(trace_stats.fallback_reason, "observed") << what;
      EXPECT_EQ(trace_stats.simulated_iterations, measured + 1) << what;

      ReplayStats validated_stats;
      SimValidator validator;
      TrainMetrics validated;
      {
        ObserverScope scope(&validator);
        validated = engine.Run(model, schedule, nullptr, &validated_stats);
      }
      EXPECT_TRUE(validator.ok()) << validator.Summary();
      EXPECT_EQ(validated_stats.fallback_reason, "observed") << what;
      EXPECT_EQ(validated_stats.simulated_iterations, measured + 1) << what;
      EXPECT_EQ(validator.kernels_finished(),
                static_cast<int64_t>(schedule.ops.size()) * (measured + 1))
          << what;

      ExpectBitwiseEqual(plain, traced, what);
      ExpectBitwiseEqual(plain, validated, what);
    }
  }
}

// One random search genotype per model, decoded: the search's schedules.
IterationSchedule GenotypeSchedule(const TrainGraph& graph, uint64_t seed) {
  Rng rng(seed);
  return DecodeGenotype(graph, RandomGenotype(graph, rng));
}

// The barrier rule on the event path: in every precompiled Figure 7 run
// (XLA + Opt1, ooo and Nimble profiles), whatever the schedule, iteration 0
// lasts one period plus the graph launch and every later iteration one
// period, and the executor steps one iteration to the same outcome.
TEST(SteadyReplayTest, PrecompiledIterationsRepeatTheLaunch) {
  const std::vector<NnModel> models = {
      DenseNet(121, 24, 32, 32), DenseNet(169, 32, 32, 32),
      MobileNetV3Large(0.75, 32, 224), ResNet(50, 32, 224),
      ResNet(101, 32, 224)};
  const std::vector<GpuSpec> gpus = {GpuSpec::V100(), GpuSpec::P100(),
                                     GpuSpec::TitanXp()};
  const std::vector<SystemProfile> profiles = {SystemProfile::TensorFlowXla(),
                                               SystemProfile::PyTorchNimble()};
  constexpr int kIterations = 4;
  int runs = 0;
  for (const NnModel& model : models) {
    const TrainGraph graph(&model);
    const IterationSchedule conv = ConventionalIteration(graph);
    const IterationSchedule naive = NaiveSubStreamIteration(graph);
    const IterationSchedule genotype = GenotypeSchedule(graph, 25);
    for (const GpuSpec& gpu : gpus) {
      for (const SystemProfile& profile : profiles) {
        const IterationSchedule ooo =
            MakeOooSchedule(graph, gpu, profile).schedule;
        SingleGpuConfig cfg;
        cfg.gpu = gpu;
        cfg.profile = profile;
        cfg.precompiled_issue = true;
        const CostModel cost(gpu, profile);
        for (const IterationSchedule* schedule :
             {&conv, &ooo, &naive, &genotype}) {
          const std::string what =
              StrFormat("%s on %s, %s, %zu ops", model.name.c_str(),
                        gpu.name.c_str(), profile.name.c_str(),
                        schedule->ops.size());
          const TrainSimOutcome event =
              SimulateTraining(cfg, cost, model, *schedule, kIterations);
          const TimeNs period =
              event.iter_end[0] - profile.graph_launch_latency;
          for (int t = 0; t + 1 < kIterations; ++t) {
            EXPECT_EQ(event.iter_end[t + 1] - event.iter_end[t], period)
                << what << ", iteration " << t + 1;
          }
          const TrainSimOutcome exec =
              ExecuteTraining(cfg, cost, model, *schedule, kIterations);
          EXPECT_EQ(exec.simulated_iterations, 1) << what;
          EXPECT_EQ(exec.iter_end, event.iter_end) << what;
          EXPECT_EQ(exec.busy_integral, event.busy_integral) << what;
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 120);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// The first field in which the executor's outcome differs from the event
// path's, or "" if none does. Every comparison is exact: times as integers,
// doubles by their bits. The executor records the busy increments of the
// iterations it stepped, a prefix of the event path's, and processes the
// event path's events only when it stepped every iteration.
std::string OutcomeDiff(const TrainSimOutcome& event,
                        const TrainSimOutcome& exec, int iterations) {
  if (event.iter_end != exec.iter_end) {
    return "iter_end";
  }
  if (Bits(event.busy_integral) != Bits(exec.busy_integral)) {
    return StrFormat("busy_integral %.17g vs %.17g", event.busy_integral,
                     exec.busy_integral);
  }
  if (exec.increments.size() > event.increments.size()) {
    return StrFormat("%zu vs %zu increments", exec.increments.size(),
                     event.increments.size());
  }
  for (size_t k = 0; k < exec.increments.size(); ++k) {
    if (event.increments[k].time != exec.increments[k].time ||
        Bits(event.increments[k].value) != Bits(exec.increments[k].value)) {
      return StrFormat("increment %zu", k);
    }
  }
  if (exec.simulated_iterations == iterations &&
      (event.increments.size() != exec.increments.size() ||
       event.events != exec.events)) {
    return StrFormat("stepped every iteration: %llu vs %llu events",
                     static_cast<unsigned long long>(event.events),
                     static_cast<unsigned long long>(exec.events));
  }
  return "";
}

// Compares outcomes, not metrics: a metric can hide a reordered event. Three
// deliberately wrong executors show it. One that begins same-instant kernels
// in stream order instead of dispatch order leaves every iteration end and
// busy integral unchanged, yet moves the increments the executor steps in
// 2,077 configurations. One that folds busy contributions in priority order
// instead of job-seq order moves the busy integral in 444 and the increments
// in 5,096 more. One whose barrier comparison ignores the launcher's
// in-flight count extrapolates 6 of the lagging-launcher runs below too
// early. All three fail here.
TEST(SteadyReplayTest, ExecutorMatchesEventPathOnFullOutcomes) {
  int configs = 0;
  int mismatches = 0;
  int extrapolated = 0;
  const auto check = [&](const NnModel& model, const GpuSpec& gpu,
                         const SystemProfile& profile,
                         const IterationSchedule& schedule, bool precompiled,
                         int iterations, const std::string& what) {
    SingleGpuConfig cfg;
    cfg.gpu = gpu;
    cfg.profile = profile;
    cfg.precompiled_issue = precompiled;
    const CostModel cost(gpu, profile);
    const TrainSimOutcome event =
        SimulateTraining(cfg, cost, model, schedule, iterations);
    const TrainSimOutcome exec =
        ExecuteTraining(cfg, cost, model, schedule, iterations);
    ++configs;
    extrapolated += exec.simulated_iterations < iterations;
    const std::string diff = OutcomeDiff(event, exec, iterations);
    if (!diff.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << model.name << " " << what << " precompiled "
                    << precompiled << " iterations " << iterations << ": "
                    << diff;
    }
  };

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
  for (size_t m = 0; m < models.size(); ++m) {
    const TrainGraph graph(&models[m]);
    const IterationSchedule conv = ConventionalIteration(graph);
    const IterationSchedule naive = NaiveSubStreamIteration(graph);
    const IterationSchedule genotype = GenotypeSchedule(graph, 1000 + m);
    for (size_t g = 0; g < gpus.size(); ++g) {
      for (size_t p = 0; p < profiles.size(); ++p) {
        const IterationSchedule ooo =
            MakeOooSchedule(graph, gpus[g], profiles[p]).schedule;
        const IterationSchedule* schedules[] = {&conv, &ooo, &naive,
                                                &genotype};
        for (int k = 0; k < 4; ++k) {
          for (bool precompiled : {false, true}) {
            // 3 is ScheduleEvaluator's run: one warm-up, two measured.
            for (int iterations : {1, 2, 3, 4, 7, 25}) {
              check(models[m], gpus[g], profiles[p], *schedules[k],
                    precompiled, iterations,
                    StrFormat("gpu %zu profile %zu schedule %d", g, p, k));
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 10752);

  // Per-op runs whose launcher falls behind the GPU: an issue latency at the
  // 8 us kernel floor (fused) or half of it (per primitive op), a queue of 6
  // to 24, on two random models that show it. The pending events seen from
  // consecutive barriers can agree while the launcher's lead differs.
  Rng lag_rng(99);
  for (int r = 0; r <= 11; ++r) {
    const NnModel model = RandomModel(lag_rng);
    if (r != 9 && r != 11) {
      continue;
    }
    const TrainGraph graph(&model);
    SystemProfile profile =
        r == 9 ? SystemProfile::TensorFlowXla() : SystemProfile::TensorFlow();
    profile.issue_latency_per_op = Us(r == 9 ? 8 : 4);
    for (int depth : {6, 8, 12, 24}) {
      profile.issue_queue_depth = depth;
      const GpuSpec gpu = GpuSpec::TitanXp();
      const IterationSchedule ooo =
          MakeOooSchedule(graph, gpu, profile).schedule;
      for (const IterationSchedule& schedule :
           {ConventionalIteration(graph), NaiveSubStreamIteration(graph),
            ooo}) {
        for (int iterations : {7, 25}) {
          check(model, gpu, profile, schedule, /*precompiled=*/false,
                iterations,
                StrFormat("lagging launcher %d, depth %d", r, depth));
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << configs << " configurations";
  EXPECT_EQ(configs, 10800);
  // Every run longer than the barrier rule's one iteration (two per-op)
  // ends early, except 236 per-op runs whose unbounded issue queue lets the
  // launcher get further ahead at every barrier, and 9 lagging-launcher runs
  // whose launcher has not settled before their last barrier.
  EXPECT_EQ(extrapolated, 7867);
}

TEST(SteadyReplayTest, ExecutorCountsEventsIntoTheProcessWideTally) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  const IterationSchedule schedule = ConventionalIteration(graph);
  const SingleGpuConfig cfg = SingleGpuCfg(3);
  const CostModel cost(cfg.gpu, cfg.profile);
  const uint64_t before = SimEngine::TotalProcessedEvents();
  const TrainSimOutcome exec = ExecuteTraining(cfg, cost, model, schedule, 4);
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
  EXPECT_EQ(off_stats.fallback_reason, "observed");
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

  // A PipeDream run too short to skip a whole period after its pipeline
  // fill steps every iteration on the executor.
  ReplayStats short_stats;
  PipelineEngine(PipeCfg(1))
      .Run(micro, PipelineStrategy::kPipeDream, nullptr, &short_stats);
  EXPECT_TRUE(short_stats.attempted);
  EXPECT_FALSE(short_stats.replayed);
  EXPECT_EQ(short_stats.simulated_iterations, 2);
  EXPECT_EQ(short_stats.fallback_reason, "aperiodic");
}

}  // namespace
}  // namespace oobp

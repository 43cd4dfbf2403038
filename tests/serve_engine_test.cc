// ServeEngine integration (src/serve/serve_engine.h): serve-only and co-run
// simulations complete every request, latency grows with offered load, and
// the headline serving claim of the paper holds — co-running inference under
// an ooo-backprop schedule tightens the tail (p99) versus the in-order
// baseline at near-equal training throughput (DESIGN.md §7).
//
// ServeExecutorTest is the differential battery of the replica driver's two
// producers (DESIGN.md §6.3): every ServeEngine and FleetEngine config of a
// grid runs under an ObserverScope (the event path) and outside it (the
// slot executor), and every metric field and the event tally must agree bit
// for bit.

#include "src/serve/serve_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/layer_builder.h"
#include "src/nn/train_graph.h"
#include "src/nn/model_zoo.h"
#include "src/serve/fleet_engine.h"
#include "src/sim/engine.h"
#include "src/validate/fuzzer.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

ServeConfig MobileNetServeConfig(double rate_rps) {
  ServeConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.arrivals.rate_rps = rate_rps;
  config.arrivals.seed = 99;
  config.horizon = Ms(100);
  config.slo = Ms(20);
  config.batcher.max_batch = 8;
  config.batcher.max_queue_delay = Ms(1);
  config.make_model = [](int b) { return MobileNetV3Large(1.0, b, 224); };
  return config;
}

TEST(ServeEngineTest, ServeOnlyCompletesEveryRequest) {
  const ServeEngine engine(MobileNetServeConfig(3000.0));
  const ServeMetrics m = engine.RunServeOnly();

  EXPECT_GT(m.num_requests, 200);
  EXPECT_EQ(m.num_completed, m.num_requests);  // the simulation drains
  EXPECT_EQ(m.batch_sizes.total(), m.num_completed);  // one entry per request
  EXPECT_GT(m.p50_latency, 0);
  EXPECT_LE(m.p50_latency, m.p95_latency);
  EXPECT_LE(m.p95_latency, m.p99_latency);
  EXPECT_LE(m.p99_latency, m.max_latency);
  EXPECT_GE(m.mean_batch_size, 1.0);
  EXPECT_LE(m.mean_batch_size, 8.0);
  EXPECT_DOUBLE_EQ(m.slo_attainment, 1.0);  // far from saturation
}

TEST(ServeEngineTest, LatencyGrowsWithOfferedLoad) {
  const ServeMetrics low =
      ServeEngine(MobileNetServeConfig(3000.0)).RunServeOnly();
  const ServeMetrics high =
      ServeEngine(MobileNetServeConfig(14000.0)).RunServeOnly();
  // 14 krps oversubscribes the device: queueing must dominate.
  EXPECT_GT(high.p50_latency, low.p50_latency);
  EXPECT_GT(high.p99_latency, low.p99_latency);
  EXPECT_LT(high.slo_attainment, 1.0);
  EXPECT_GT(high.mean_batch_size, low.mean_batch_size);
}

TEST(ServeEngineTest, OooCorunTightensTailAtEqualTrainingThroughput) {
  ServeConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.arrivals.rate_rps = 50.0;
  config.arrivals.seed = 7;
  // A 2 s horizon yields ~100 latency samples, enough that p99 (nearest
  // rank 99+) is not decided by the single worst request.
  config.horizon = Ms(2000);
  config.slo = Ms(40);
  config.batcher.max_batch = 8;
  config.batcher.max_queue_delay = Ms(1);
  config.make_model = [](int b) { return ResNet(50, b, 224); };

  const NnModel train_model = DenseNet(121, 24, 32, 224);
  const TrainGraph graph(&train_model);
  const IterationSchedule in_order = ConventionalIteration(graph);
  const IterationSchedule ooo =
      MakeOooSchedule(graph, config.gpu, config.profile).schedule;

  const ServeEngine engine(config);
  const ServeCorunResult baseline =
      engine.RunCorun(train_model, in_order, /*train_iterations=*/50);
  const ServeCorunResult reordered =
      engine.RunCorun(train_model, ooo, /*train_iterations=*/50);

  ASSERT_GT(baseline.serve.num_completed, 60);
  EXPECT_EQ(baseline.serve.num_completed, baseline.serve.num_requests);
  EXPECT_EQ(reordered.serve.num_completed, reordered.serve.num_requests);

  // Headline claim: ooo-backprop demotes dW below the inference stream, so
  // the serving tail tightens ...
  EXPECT_LT(reordered.serve.p99_latency, baseline.serve.p99_latency);
  // ... while training throughput stays within 2% of the in-order co-run.
  EXPECT_LE(static_cast<double>(reordered.train.iteration_time),
            1.02 * static_cast<double>(baseline.train.iteration_time));
  EXPECT_FALSE(baseline.train.oom);
  EXPECT_FALSE(reordered.train.oom);
}

// An inference model without layers would leave every batch, and so every
// request, incomplete; the run fails closed instead.
TEST(ServeEngineTest, InferenceModelWithoutLayersFailsClosed) {
  ServeConfig config = MobileNetServeConfig(3000.0);
  config.make_model = [](int batch) {
    NnModel m;
    m.name = "empty";
    m.batch = batch;
    return m;
  };
  EXPECT_DEATH(ServeEngine(config).RunServeOnly(), "has no layers");
}

// ---------------------------------------------------------------------------
// Executor vs event path.

NnModel SmallInferenceModel(int batch) {
  NnModel m;
  m.name = "small-infer";
  m.batch = batch;
  m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
  m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
  m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
  return m;
}

NnModel SmallTrainModel() {
  NnModel m;
  m.name = "small-train";
  m.batch = 64;
  m.layers.push_back(MakeConv2d("c0", "b0", 64, 16, 16, 16, 32, 3, 1));
  m.layers.push_back(MakeConv2d("c1", "b0", 64, 32, 16, 16, 32, 3, 1));
  m.layers.push_back(MakePool("p0", "b1", 64, 32, 16, 16));
  m.layers.push_back(MakeConv2d("c2", "b1", 64, 32, 8, 8, 64, 3, 1));
  m.layers.push_back(MakeDense("fc", "b2", 64, 1, 1024, 256));
  return m;
}

enum class Mode { kServeOnly, kInOrder, kOoo };
const char* ModeName(Mode mode) {
  return mode == Mode::kServeOnly ? "serve-only"
         : mode == Mode::kInOrder ? "in-order co-run"
                                  : "ooo co-run";
}

// Ways to make events share a nanosecond. kZeroGaps: kernels begin and
// batches launch at the instant that scheduled them. kDenseArrivals: 5e7
// rps, a request every ~20 ns. kNanosecondTimers: 1 ns batching deadlines
// and 2 ns autoscaler ticks. Only the last two catch the executor's
// tie-break mutants: arrivals that lose same-nanosecond ties to replica
// events fail 36 dense-arrival configs, and ticks that lose them fail 54
// nanosecond-timer configs (DESIGN.md §6.3).
enum class Ties { kNone, kZeroGaps, kDenseArrivals, kNanosecondTimers };
const char* TiesName(Ties ties) {
  switch (ties) {
    case Ties::kNone:
      return "no forced ties";
    case Ties::kZeroGaps:
      return "zero gaps";
    case Ties::kDenseArrivals:
      return "dense arrivals";
    case Ties::kNanosecondTimers:
      return "1 ns deadline, 2 ns ticks";
  }
  return "?";
}

struct TrainSide {
  NnModel model = SmallTrainModel();
  IterationSchedule in_order;
  IterationSchedule ooo;
};

FleetConfig GridConfig(int replicas, Ties ties) {
  FleetConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.arrivals.kind = ArrivalKind::kBursty;
  config.arrivals.rate_rps = 80000.0 * replicas;
  config.arrivals.seed = 11;
  config.horizon = Us(1500);
  config.slo = Us(800);
  config.batcher.max_queue_delay = Us(40);
  config.autoscaler.scale_up_depth = 1.0;
  config.autoscaler.scale_down_depth = 0.25;
  config.autoscaler.evaluate_every = Us(30);
  config.autoscaler.cooldown = Us(60);
  config.autoscaler.warmup = Us(100);
  config.make_model = SmallInferenceModel;
  switch (ties) {
    case Ties::kNone:
      break;
    case Ties::kZeroGaps:
      config.gpu.kernel_exec_overhead = 0;
      config.profile.graph_launch_latency = 0;
      break;
    case Ties::kDenseArrivals:
      config.arrivals.kind = ArrivalKind::kPoisson;
      config.arrivals.rate_rps = 5e7;
      config.horizon = Us(40);
      config.autoscaler.evaluate_every = 200;
      config.autoscaler.cooldown = 400;
      config.autoscaler.warmup = 300;
      break;
    case Ties::kNanosecondTimers:
      config.arrivals.rate_rps = 2e7;
      config.horizon = Us(10);
      config.batcher.max_queue_delay = 1;
      config.autoscaler.evaluate_every = 2;
      config.autoscaler.cooldown = 20;
      config.autoscaler.warmup = 50;
      // A request waiting out its 1 ns deadline is queued depth one: a tick
      // on that nanosecond scales up before the dispatch and down after.
      config.autoscaler.scale_up_depth = 0.5;
      config.autoscaler.scale_down_depth = 0.1;
      break;
  }
  return config;
}

struct ServingRun {
  FleetMetrics metrics;
  uint64_t events = 0;
};

// One run of the config through ServeEngine (`serve_engine`) or
// FleetEngine, inside an ObserverScope when `validator` is set.
ServingRun RunServing(const FleetConfig& config, bool serve_engine, Mode mode,
                      const TrainSide& train, SimValidator* validator) {
  ServingRun run;
  std::optional<ObserverScope> scope;
  if (validator != nullptr) {
    scope.emplace(validator);
  }
  const IterationSchedule& schedule =
      mode == Mode::kOoo ? train.ooo : train.in_order;
  constexpr int kTrainIterations = 5;  // about the base horizon
  const uint64_t before = SimEngine::ThreadProcessedEvents();
  if (serve_engine) {
    ServeConfig one;
    one.gpu = config.gpu;
    one.profile = config.profile;
    one.arrivals = config.arrivals;
    one.batcher = config.batcher;
    one.horizon = config.horizon;
    one.slo = config.slo;
    one.make_model = config.make_model;
    const ServeEngine engine(std::move(one));
    if (mode == Mode::kServeOnly) {
      run.metrics.serve = engine.RunServeOnly();
    } else {
      ServeCorunResult out =
          engine.RunCorun(train.model, schedule, kTrainIterations);
      run.metrics.serve = std::move(out.serve);
      run.metrics.train = out.train;
    }
  } else {
    const FleetEngine engine(config);
    run.metrics = mode == Mode::kServeOnly
                      ? engine.RunServeOnly()
                      : engine.RunCorun(train.model, schedule,
                                        kTrainIterations);
  }
  run.events = SimEngine::ThreadProcessedEvents() - before;
  return run;
}

void ExpectExecutorMatchesEventPath(const FleetConfig& config,
                                    bool serve_engine, Mode mode,
                                    const TrainSide& train,
                                    const std::string& what) {
  SimValidator validator;
  const ServingRun event =
      RunServing(config, serve_engine, mode, train, &validator);
  EXPECT_TRUE(validator.ok()) << what << ": " << validator.Summary();
  // The validator saw every replica's Gpu: the event path ran.
  EXPECT_EQ(validator.gpus_observed(),
            serve_engine ? 1 : config.autoscaler.max_replicas)
      << what;
  const ServingRun exec =
      RunServing(config, serve_engine, mode, train, nullptr);
  EXPECT_EQ(ServingMismatch(exec.metrics, event.metrics), "") << what;
  EXPECT_EQ(exec.events, event.events) << what;
  EXPECT_GT(event.metrics.serve.num_completed, 0) << what;
  EXPECT_EQ(event.metrics.serve.num_completed,
            event.metrics.serve.num_requests)
      << what;
}

TEST(ServeExecutorTest, MatchesEventPathOverTheGrid) {
  TrainSide train;
  const TrainGraph graph(&train.model);
  train.in_order = ConventionalIteration(graph);
  train.ooo = MakeOooSchedule(graph, GpuSpec::V100(),
                              SystemProfile::TensorFlowXla())
                  .schedule;
  const RoutingPolicy policies[] = {RoutingPolicy::kRoundRobin,
                                    RoutingPolicy::kLeastLoaded,
                                    RoutingPolicy::kPowerOfTwo};
  int runs = 0;
  for (const Ties ties : {Ties::kNone, Ties::kZeroGaps, Ties::kDenseArrivals,
                          Ties::kNanosecondTimers}) {
    for (const Mode mode : {Mode::kServeOnly, Mode::kInOrder, Mode::kOoo}) {
      for (const int inflight : {1, 2}) {
        for (const int max_batch : {1, 4}) {
          for (const int replicas : {1, 2, 3, 5}) {
            FleetConfig config = GridConfig(replicas, ties);
            config.batcher.max_inflight = inflight;
            config.batcher.max_batch = max_batch;
            config.autoscaler.max_replicas = replicas;
            const std::string shape = StrFormat(
                "%s, %s, %d inflight, batch %d", TiesName(ties),
                ModeName(mode), inflight, max_batch);
            if (replicas == 1) {
              // ServeEngine: one replica, no router, no autoscaler.
              ExpectExecutorMatchesEventPath(config, /*serve_engine=*/true,
                                             mode, train,
                                             "ServeEngine, " + shape);
              ++runs;
            }
            for (const RoutingPolicy policy : policies) {
              for (const bool autoscale : {false, true}) {
                config.router.policy = policy;
                config.router.seed = 3 + static_cast<uint64_t>(replicas);
                config.autoscaler.min_replicas = autoscale ? 1 : replicas;
                ExpectExecutorMatchesEventPath(
                    config, /*serve_engine=*/false, mode, train,
                    StrFormat("%d replicas, %s, %s, ", replicas,
                              RoutingPolicyName(policy),
                              autoscale ? "autoscaled" : "fixed") +
                        shape);
                ++runs;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 4 * 3 * 2 * 2 * (1 + 4 * 3 * 2));
}

// ---------------------------------------------------------------------------
// Timer wiring. Both producers run the driver's batching and scaling
// wiring, so the battery above cannot catch a wiring bug they share; these
// cases pin its timing end to end, on each producer.

// `run()` on the event path, under a SimValidator that must stay clean,
// then on the slot executor.
template <typename Run>
std::vector<std::invoke_result_t<Run>> OnBothProducers(const Run& run) {
  SimValidator validator;
  std::vector<std::invoke_result_t<Run>> results;
  {
    const ObserverScope scope(&validator);
    results.push_back(run());
  }
  EXPECT_TRUE(validator.ok()) << validator.Summary();
  EXPECT_GT(validator.gpus_observed(), 0);
  results.push_back(run());
  return results;
}

// A serve-only fleet of `replicas` small-model GPUs, one replica routable
// at first, flooded with requests from t = 0.
FleetConfig ScalingConfig(int replicas) {
  FleetConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.arrivals.rate_rps = 5e6;
  config.arrivals.seed = 5;
  config.horizon = Us(1000);
  config.batcher.max_batch = 4;
  config.batcher.max_queue_delay = Us(20);
  config.autoscaler.min_replicas = 1;
  config.autoscaler.max_replicas = replicas;
  config.autoscaler.scale_up_depth = 1.0;
  config.autoscaler.scale_down_depth = 0.01;
  config.autoscaler.evaluate_every = Us(100);
  config.make_model = SmallInferenceModel;
  return config;
}

TEST(ServeWiringTest, LoneRequestDispatchesAtItsDeadline) {
  ServeConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlowXla();
  config.arrivals.rate_rps = 1000.0;
  config.arrivals.seed = 1;
  config.horizon = Ms(1);
  config.batcher.max_batch = 4;
  config.batcher.max_queue_delay = Us(250);
  config.make_model = SmallInferenceModel;
  // Dispatched at its deadline, it begins one graph launch and one setup
  // gap later on the idle device.
  const double queue_delay_ms =
      ToMs(config.batcher.max_queue_delay +
           config.profile.graph_launch_latency +
           config.gpu.kernel_exec_overhead);
  for (const ServeMetrics& m : OnBothProducers(
           [&] { return ServeEngine(config).RunServeOnly(); })) {
    ASSERT_EQ(m.num_requests, 1);
    EXPECT_EQ(m.num_completed, 1);
    EXPECT_DOUBLE_EQ(m.mean_queue_delay_ms, queue_delay_ms);
  }
  FleetConfig fleet;
  fleet.gpu = config.gpu;
  fleet.profile = config.profile;
  fleet.arrivals = config.arrivals;
  fleet.batcher = config.batcher;
  fleet.horizon = config.horizon;
  fleet.make_model = config.make_model;
  for (const FleetMetrics& m : OnBothProducers(
           [&] { return FleetEngine(fleet).RunServeOnly(); })) {
    ASSERT_EQ(m.serve.num_requests, 1);
    EXPECT_DOUBLE_EQ(m.serve.mean_queue_delay_ms, queue_delay_ms);
  }
}

TEST(ServeWiringTest, ScaledUpReplicaIsRoutableAfterItsWarmup) {
  FleetConfig config = ScalingConfig(2);
  config.autoscaler.cooldown = Ms(10);  // one action
  config.autoscaler.warmup = Us(300);
  for (const FleetMetrics& m : OnBothProducers(
           [&] { return FleetEngine(config).RunServeOnly(); })) {
    // The first tick, at evaluate_every, scales up.
    EXPECT_EQ(m.scale_ups, 1);
    EXPECT_EQ(m.replica_timeline,
              (std::vector<std::pair<TimeNs, int>>{{0, 1}, {Us(400), 2}}));
    EXPECT_GT(m.replica_completed[1], 0);
  }
}

TEST(ServeWiringTest, CancelledWarmupNeverShowsInTheTimeline) {
  FleetConfig config = ScalingConfig(2);
  // Requests arrive for the first 150 us only, and the backlog drains long
  // before the 1 ms warm-up that the first tick starts would end.
  config.arrivals.rate_rps = 5e5;
  config.envelope = {{Us(150), 1.0}, {Ms(100), 0.0}};
  config.autoscaler.cooldown = Us(100);
  config.autoscaler.warmup = Ms(1);
  for (const FleetMetrics& m : OnBothProducers(
           [&] { return FleetEngine(config).RunServeOnly(); })) {
    EXPECT_EQ(m.scale_ups, 1);
    EXPECT_EQ(m.scale_downs, 1);
    EXPECT_EQ(m.replica_timeline,
              (std::vector<std::pair<TimeNs, int>>{{0, 1}}));
    EXPECT_EQ(m.replica_completed[1], 0);
  }
}

TEST(ServeWiringTest, ActionsAreAtLeastACooldownApart) {
  FleetConfig config = ScalingConfig(4);
  config.autoscaler.cooldown = Us(250);
  config.autoscaler.warmup = Us(50);
  for (const FleetMetrics& m : OnBothProducers(
           [&] { return FleetEngine(config).RunServeOnly(); })) {
    // Ticks every 100 us; the cooldown admits actions at 100, 400 and
    // 700 us, each routable 50 us later.
    EXPECT_EQ(m.scale_ups, 3);
    EXPECT_EQ(m.replica_timeline,
              (std::vector<std::pair<TimeNs, int>>{
                  {0, 1}, {Us(150), 2}, {Us(450), 3}, {Us(750), 4}}));
  }
}

TEST(ServeWiringTest, NoTickPastTheHorizon) {
  FleetConfig config = ScalingConfig(8);
  config.horizon = Us(300);
  config.autoscaler.cooldown = 0;
  config.autoscaler.warmup = 0;
  for (const FleetMetrics& m : OnBothProducers(
           [&] { return FleetEngine(config).RunServeOnly(); })) {
    // Ticks at 100, 200 and 300 us each scale up; the backlog left at the
    // horizon would scale up again at every later tick.
    EXPECT_EQ(m.scale_ups, 3);
    EXPECT_EQ(m.replica_timeline,
              (std::vector<std::pair<TimeNs, int>>{
                  {0, 1}, {Us(100), 2}, {Us(200), 3}, {Us(300), 4}}));
  }
}

}  // namespace
}  // namespace oobp

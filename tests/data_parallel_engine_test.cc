#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/reverse_k.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

DataParallelConfig Config(int gpus, CommScheme scheme) {
  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = gpus;
  config.scheme = scheme;
  config.measured_iterations = 2;
  return config;
}

TEST(DataParallelEngineTest, SingleGpuHasNoCommOverhead) {
  const NnModel m = ResNet(50, 64);
  const TrainGraph g(&m);
  const DataParallelEngine engine(Config(1, CommScheme::kBytePS));
  const TrainMetrics metrics = engine.Run(m, g.ConventionalBackprop());
  EXPECT_EQ(metrics.comm_comp_ratio, 0.0);
  EXPECT_EQ(engine.SyncVolume(m, 0), 0);
}

TEST(DataParallelEngineTest, SyncVolumeGrowsWithClusterSize) {
  const NnModel m = ResNet(50, 64);
  const DataParallelEngine e8(Config(8, CommScheme::kBytePS));
  const DataParallelEngine e32(Config(32, CommScheme::kBytePS));
  int layer = -1;
  for (int l = 0; l < m.num_layers(); ++l) {
    if (m.layers[l].has_params()) {
      layer = l;
      break;
    }
  }
  ASSERT_GE(layer, 0);
  EXPECT_LT(e8.SyncVolume(m, layer), e32.SyncVolume(m, layer));
}

TEST(DataParallelEngineTest, IntraNodeBandwidthUsedForSmallJobs) {
  const DataParallelEngine e4(Config(4, CommScheme::kBytePS));
  const DataParallelEngine e8(Config(8, CommScheme::kBytePS));
  // 4 GPUs fit one Pub-A node (NVLink); 8 GPUs span nodes (Ethernet/4).
  EXPECT_GT(e4.ChannelBandwidthGbps(), 10 * e8.ChannelBandwidthGbps());
}

TEST(DataParallelEngineTest, PerGpuThroughputDegradesWithScale) {
  const NnModel m = ResNet(50, 64);
  const TrainGraph g(&m);
  const TrainMetrics m4 =
      DataParallelEngine(Config(4, CommScheme::kBytePS)).Run(m, g.ConventionalBackprop());
  const TrainMetrics m32 =
      DataParallelEngine(Config(32, CommScheme::kBytePS)).Run(m, g.ConventionalBackprop());
  EXPECT_LT(m32.throughput / 32.0, m4.throughput / 4.0);
  // But global throughput still grows.
  EXPECT_GT(m32.throughput, m4.throughput);
}

TEST(DataParallelEngineTest, BytePsBeatsHorovodAtScale) {
  const NnModel m = ResNet(50, 64);
  const TrainGraph g(&m);
  const TrainMetrics hvd =
      DataParallelEngine(Config(16, CommScheme::kHorovod))
          .Run(m, g.ConventionalBackprop());
  const TrainMetrics bps =
      DataParallelEngine(Config(16, CommScheme::kBytePS))
          .Run(m, g.ConventionalBackprop());
  EXPECT_GT(bps.throughput, hvd.throughput);
}

TEST(DataParallelEngineTest, ReverseFirstKNeverHurtsMuchAndHelpsAtScale) {
  const NnModel m = ResNet(50, 96);
  const TrainGraph g(&m);
  const DataParallelEngine engine(Config(16, CommScheme::kBytePS));
  const TrainMetrics conv = engine.Run(m, g.ConventionalBackprop());
  const ReverseFirstKResult rk = ReverseFirstK(g, 40);
  const TrainMetrics ooo = engine.Run(m, rk.order);
  EXPECT_GT(ooo.throughput, conv.throughput * 0.98);
  // At 16 GPUs on 10GbE the paper reports 1.1-1.27x; require a real gain.
  EXPECT_GT(ooo.throughput, conv.throughput * 1.03);
}

TEST(DataParallelEngineTest, RejectsInvalidBackpropOrder) {
  const NnModel m = Ffnn(4, 32);
  const TrainGraph g(&m);
  auto bad = g.ConventionalBackprop();
  std::swap(bad.front(), bad.back());
  const DataParallelEngine engine(Config(4, CommScheme::kBytePS));
  EXPECT_DEATH(engine.Run(m, bad), "ValidateBackpropOrder");
}

TEST(DataParallelEngineTest, DeterministicAcrossRuns) {
  const NnModel m = ResNet(50, 64);
  const TrainGraph g(&m);
  const DataParallelEngine engine(Config(8, CommScheme::kBytePS));
  const TrainMetrics a = engine.Run(m, g.ConventionalBackprop());
  const TrainMetrics b = engine.Run(m, g.ConventionalBackprop());
  EXPECT_EQ(a.iteration_time, b.iteration_time);
}

TEST(DataParallelEngineTest, IdealSyncTimeConsistentWithVolume) {
  const NnModel m = ResNet(50, 64);
  const DataParallelEngine engine(Config(16, CommScheme::kBytePS));
  for (int l = 0; l < m.num_layers(); ++l) {
    if (!m.layers[l].has_params()) {
      EXPECT_EQ(engine.IdealSyncTime(m, l), 0);
      continue;
    }
    const double expected = engine.SyncVolume(m, l) /
                            engine.ChannelBandwidthGbps();
    EXPECT_NEAR(static_cast<double>(engine.IdealSyncTime(m, l)), expected,
                expected * 0.01 + 2.0);
  }
}

TEST(DataParallelEngineTest, RejectsConfigsThatCannotRun) {
  DataParallelConfig config = Config(4, CommScheme::kBytePS);
  config.measured_iterations = 0;
  EXPECT_DEATH(DataParallelEngine{config}, "measured_iterations");
  config = Config(4, CommScheme::kBytePS);
  config.partition_bytes = 0;
  EXPECT_DEATH(DataParallelEngine{config}, "partition_bytes");
  config = Config(4, CommScheme::kBytePS);
  config.unit_time = Us(1);
  config.unit_sync_units = 0.0;
  EXPECT_DEATH(DataParallelEngine{config}, "unit_sync_units");
}

// ---------------------------------------------------------------------------
// Executor vs event path (DESIGN.md §6.3, §9.2). Runs outside an
// ObserverScope take the exact five-slot executor, which stops at the
// first repeated iteration boundary; inside one they take SimEngine + Gpu +
// Link, which step every iteration. Every metric must match bit for bit,
// and the event tally too when the executor stepped every iteration.

// Pool, conv, pool, dense, pool, dense: parameter-free layers, layer 0
// among them.
NnModel ParamFreeModel(int batch) {
  NnModel m;
  m.name = "param-free-mix";
  m.batch = batch;
  m.layers.push_back(MakePool("pool0", "b0", batch, 16, 32, 32));
  m.layers.push_back(MakeConv2d("conv1", "b0", batch, 16, 32, 32, 32, 3, 1));
  m.layers.push_back(MakePool("pool2", "b1", batch, 32, 16, 16));
  m.layers.push_back(MakeDense("fc3", "b1", batch, 1, 8192, 1024));
  m.layers.push_back(MakePool("pool4", "b2", batch, 1024, 1, 1));
  m.layers.push_back(MakeDense("fc5", "b2", batch, 1, 1024, 1000));
  return m;
}

struct DpRun {
  TrainMetrics metrics;
  ReplayStats stats;
  uint64_t events = 0;  // SimEngine tally delta
};

DpRun RunDp(const DataParallelConfig& config, const NnModel& model,
            const std::vector<TrainOp>& order) {
  DpRun run;
  const uint64_t before = SimEngine::ThreadProcessedEvents();
  run.metrics =
      DataParallelEngine(config).Run(model, order, nullptr, &run.stats);
  run.events = SimEngine::ThreadProcessedEvents() - before;
  return run;
}

// Returns the executor's run after checking it against the event path.
DpRun ExpectExecutorMatchesEventPath(const DataParallelConfig& config,
                                     const NnModel& model,
                                     const std::vector<TrainOp>& order,
                                     const std::string& what) {
  SimValidator validator;
  DpRun event;
  {
    ObserverScope scope(&validator);
    event = RunDp(config, model, order);
  }
  EXPECT_TRUE(validator.ok()) << what << ": " << validator.Summary();
  const DpRun exec = RunDp(config, model, order);
  const int total = 1 + config.measured_iterations;
  EXPECT_FALSE(event.stats.executor) << what;
  EXPECT_EQ(event.stats.fallback_reason, "observed") << what;
  EXPECT_EQ(event.stats.simulated_iterations, total) << what;
  EXPECT_TRUE(exec.stats.executor) << what;
  EXPECT_GE(exec.stats.simulated_iterations, 1) << what;
  EXPECT_LE(exec.stats.simulated_iterations, total) << what;
  EXPECT_EQ(exec.stats.replayed, exec.stats.simulated_iterations < total)
      << what;
  const TrainMetrics& a = exec.metrics;
  const TrainMetrics& b = event.metrics;
  EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization) << what;
  EXPECT_EQ(a.comm_comp_ratio, b.comm_comp_ratio) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.oom, b.oom) << what;
  if (exec.stats.simulated_iterations == total) {
    EXPECT_EQ(exec.events, event.events) << what;
  } else {
    EXPECT_LT(exec.events, event.events) << what;
  }
  return exec;
}

struct CommCase {
  const char* name;
  CommScheme scheme;
  int64_t commit_window_bytes;
  int64_t fusion_buffer_bytes;
  TimeNs fusion_cycle;
};

TEST(DataParallelExecutorTest, MatchesEventPathOverTheGrid) {
  struct ClusterCase {
    ClusterSpec cluster;
    int gpus[3];  // one GPU, intra-node where the cluster has it, cross-node
  };
  const ClusterCase clusters[] = {{ClusterSpec::PrivA(), {1, 2, 8}},
                                  {ClusterSpec::PrivB(), {1, 3, 16}},
                                  {ClusterSpec::PubA(), {1, 4, 16}}};
  const NnModel models[] = {ResNet(50, 32), ResNet(101, 32),
                            ParamFreeModel(32)};
  const CommCase comms[] = {
      {"byteps", CommScheme::kBytePS, 256LL << 20, 0, 0},
      {"byteps-window0", CommScheme::kBytePS, 0, 0, 0},
      // Less than one 4 MiB partition.
      {"byteps-window1MiB", CommScheme::kBytePS, 1 << 20, 0, 0},
      {"horovod", CommScheme::kHorovod, 0, 64LL << 20, Ms(5)},
  };
  // Unit time off, the fig04 toy's 1 ms units with 3-unit syncs (the 5 ms
  // fusion cycle lands on kernel ends), and 2^15-ns units with 2.5-unit
  // syncs (exact chunk times, so chunk ends tie with kernel ends).
  struct UnitCase {
    TimeNs unit_time;
    double sync_units;
  };
  const UnitCase units[] = {{0, 2.0}, {Ms(1), 3.0}, {32768, 2.5}};
  int runs = 0;
  int replayed = 0;
  for (const ClusterCase& cc : clusters) {
    for (const int gpus : cc.gpus) {
      for (const NnModel& model : models) {
        const TrainGraph graph(&model);
        const std::vector<TrainOp> orders[] = {
            graph.ConventionalBackprop(),
            ReverseFirstK(graph, model.num_layers() / 2).order};
        for (const CommCase& comm : comms) {
          for (const bool precompiled : {true, false}) {
            for (const UnitCase& unit : units) {
              for (size_t o = 0; o < 2; ++o) {
                for (const int measured : {1, 2, 16}) {
                  DataParallelConfig config;
                  config.cluster = cc.cluster;
                  config.num_gpus = gpus;
                  config.scheme = comm.scheme;
                  config.precompiled_issue = precompiled;
                  config.measured_iterations = measured;
                  config.commit_window_bytes = comm.commit_window_bytes;
                  if (comm.scheme == CommScheme::kHorovod) {
                    config.fusion_buffer_bytes = comm.fusion_buffer_bytes;
                    config.fusion_cycle = comm.fusion_cycle;
                  }
                  config.unit_time = unit.unit_time;
                  config.unit_sync_units = unit.sync_units;
                  const DpRun exec = ExpectExecutorMatchesEventPath(
                      config, model, orders[o],
                      StrFormat("%s, %d GPUs, %s, %s, %s, %s, unit %lld x "
                                "%g, %d measured",
                                cc.cluster.name.c_str(), gpus,
                                model.name.c_str(), comm.name,
                                o == 0 ? "conventional" : "reverse-first-k",
                                precompiled ? "precompiled" : "per-op",
                                static_cast<long long>(unit.unit_time),
                                unit.sync_units, measured));
                  replayed += exec.stats.replayed ? 1 : 0;
                  if (gpus > 1) {
                    // Boundary 1 repeats boundary 0.
                    EXPECT_EQ(exec.stats.simulated_iterations,
                              std::min(2, 1 + measured));
                  }
                  ++runs;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 3 * 3 * 3 * 4 * 2 * 3 * 2 * 3);
  // Every multi-GPU run at 2 and 16 measured iterations (1,728) stops at a
  // repeated boundary, and so do the 16 one-GPU per-op runs on Pub-A whose
  // launcher, not the GPU, sets the pace. The other one-GPU runs' issue
  // cursor pulls further ahead at every boundary, and a run of 1 measured
  // iteration has none left to skip.
  EXPECT_EQ(replayed, 1744);
}

// Horovod's edge values: a 1-byte fusion buffer flushes every tensor at
// once, and a zero cycle fires the timer in the nanosecond that armed it.
TEST(DataParallelExecutorTest, MatchesEventPathOnFusionEdgeValues) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  const CommCase comms[] = {
      {"1-byte buffer", CommScheme::kHorovod, 0, 1, Ms(5)},
      {"zero cycle", CommScheme::kHorovod, 0, 64LL << 20, 0},
      {"1-byte buffer, zero cycle", CommScheme::kHorovod, 0, 1, 0},
  };
  for (const CommCase& comm : comms) {
    for (const TimeNs unit : {TimeNs{0}, Us(40)}) {
      for (const int gpus : {4, 16}) {
        for (const int measured : {2, 16}) {
          DataParallelConfig config;
          config.cluster = ClusterSpec::PubA();
          config.num_gpus = gpus;
          config.scheme = comm.scheme;
          config.measured_iterations = measured;
          config.fusion_buffer_bytes = comm.fusion_buffer_bytes;
          config.fusion_cycle = comm.fusion_cycle;
          config.unit_time = unit;
          ExpectExecutorMatchesEventPath(
              config, model, graph.ConventionalBackprop(),
              StrFormat("%s, %d GPUs, unit %lld, %d measured", comm.name,
                        gpus, static_cast<long long>(unit), measured));
        }
      }
    }
  }
}

// Unit-time Horovod whose fusion cycle is a fraction of an iteration to
// several: the timer a boundary leaves armed decides when the next
// iteration's first tensors flush, so the boundary state must hold it.
TEST(DataParallelExecutorTest, MatchesEventPathWhenTheFusionTimerCrossesBoundaries) {
  const NnModel model = Ffnn(16, 32);
  const TrainGraph graph(&model);
  int replayed = 0;
  for (const TimeNs cycle : {Ms(3), Ms(7), Us(14926), Ms(20), Ms(33)}) {
    for (const bool precompiled : {true, false}) {
      for (const int measured : {4, 16}) {
        DataParallelConfig config;
        config.cluster = ClusterSpec::PrivB();
        config.num_gpus = 9;
        config.scheme = CommScheme::kHorovod;
        config.precompiled_issue = precompiled;
        config.measured_iterations = measured;
        config.unit_time = Us(246);
        config.unit_sync_units = 0.5;
        config.fusion_buffer_bytes = 16 << 20;
        config.fusion_cycle = cycle;
        replayed += ExpectExecutorMatchesEventPath(
                        config, model, graph.ConventionalBackprop(),
                        StrFormat("cycle %lld ns, %s, %d measured",
                                  static_cast<long long>(cycle),
                                  precompiled ? "precompiled" : "per-op",
                                  measured))
                        .stats.replayed;
      }
    }
  }
  EXPECT_EQ(replayed, 20);
}

// A fusion buffer of a few layers' volume and a cycle far longer than an
// iteration: the first tensor arms the timer, and the buffer then fills
// and flushes by size while the timer is still armed.
TEST(DataParallelExecutorTest, MatchesEventPathWhenSizeFlushesAnArmedTimer) {
  const NnModel model = ResNet(50, 32);
  const TrainGraph graph(&model);
  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = 16;
  config.scheme = CommScheme::kHorovod;
  config.measured_iterations = 2;
  config.fusion_cycle = Ms(500);
  const DataParallelEngine engine(config);
  int64_t largest = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    largest = std::max(largest, engine.SyncVolume(model, l));
  }
  config.fusion_buffer_bytes = 3 * largest;

  // Flushes that started before the first timer could fire came from size.
  TraceRecorder trace;
  DataParallelEngine(config).Run(model, graph.ConventionalBackprop(), &trace);
  int size_flushes = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.category == "comm" && ev.start < config.fusion_cycle) {
      ++size_flushes;
    }
  }
  EXPECT_GT(size_flushes, 1);
  // Over a longer run the armed timer crosses iteration boundaries.
  for (const int measured : {2, 16}) {
    config.measured_iterations = measured;
    ExpectExecutorMatchesEventPath(
        config, model, graph.ConventionalBackprop(),
        StrFormat("size flush under an armed timer, %d measured", measured));
  }
}

}  // namespace
}  // namespace oobp

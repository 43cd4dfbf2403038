#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/hw/link.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/runtime/pipeline_engine.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"
#include "src/validate/sim_validator.h"

namespace oobp {
namespace {

// Engine config with an effectively free interconnect, for the unit-time
// analyses of Figures 5/6/12 where communication is assumed negligible.
PipelineConfig FastLinkConfig(int gpus, int micro_batches) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = gpus;
  config.num_micro_batches = micro_batches;
  config.use_link_override = true;
  config.link_override = {"fast", 10000.0, 0};  // 10 TB/s, zero latency
  return config;
}

TEST(PipelineEngineTest, AssignmentsCoverAllGpus) {
  const NnModel m = Ffnn(8, 64);
  const PipelineEngine engine(FastLinkConfig(2, 1));
  for (PipelineStrategy s :
       {PipelineStrategy::kGPipe, PipelineStrategy::kOooPipe1,
        PipelineStrategy::kOooPipe2, PipelineStrategy::kPipeDream}) {
    const LayerAssignment a = engine.AssignmentFor(m, s);
    EXPECT_TRUE(AssignmentCoversAllGpus(a, 2)) << PipelineStrategyName(s);
  }
}

TEST(PipelineEngineTest, ModuloOnlyForOooPipe2) {
  const NnModel m = Ffnn(8, 64);
  const PipelineEngine engine(FastLinkConfig(2, 1));
  const LayerAssignment contiguous =
      engine.AssignmentFor(m, PipelineStrategy::kGPipe);
  EXPECT_EQ(contiguous, (LayerAssignment{0, 0, 0, 0, 1, 1, 1, 1}));
  const LayerAssignment modulo =
      engine.AssignmentFor(m, PipelineStrategy::kOooPipe2);
  EXPECT_EQ(modulo, (LayerAssignment{0, 1, 0, 1, 0, 1, 0, 1}));
}

// Figure 5: 8 uniform layers on 2 GPUs without micro-batches. The paper's
// unit-time analysis gives 23 / 19 / 16 units for conventional cross-layer
// model parallelism, + gradient fast-forwarding, + modulo allocation —
// speedups of 1.21x and 1.44x over the baseline.
TEST(PipelineEngineTest, Figure5UnitTimeRatios) {
  const NnModel m = Ffnn(8, 256, 4096);
  const PipelineEngine engine(FastLinkConfig(2, 1));
  const double mp =
      ToSec(engine.Run(m, PipelineStrategy::kGPipe).metrics.iteration_time);
  const double ff =
      ToSec(engine.Run(m, PipelineStrategy::kOooPipe1).metrics.iteration_time);
  const double mod =
      ToSec(engine.Run(m, PipelineStrategy::kOooPipe2).metrics.iteration_time);
  EXPECT_NEAR(mp / ff, 23.0 / 19.0, 0.12);
  EXPECT_NEAR(mp / mod, 23.0 / 16.0, 0.18);
  EXPECT_LT(mod, ff);
}

TEST(PipelineEngineTest, MicroBatchingImprovesGPipe) {
  const NnModel m = Ffnn(16, 64, 4096);
  const double mp = PipelineEngine(FastLinkConfig(4, 1))
                        .Run(m, PipelineStrategy::kGPipe)
                        .metrics.throughput;
  // 4 micro-batches of the same micro size quadruple the work per
  // iteration; throughput must rise thanks to pipelining.
  const double gpipe = PipelineEngine(FastLinkConfig(4, 4))
                           .Run(m, PipelineStrategy::kGPipe)
                           .metrics.throughput;
  EXPECT_GT(gpipe, mp * 1.3);
}

TEST(PipelineEngineTest, StrategyOrderingMatchesPaper) {
  // GPipe < OOO-Pipe1 < OOO-Pipe2 in throughput (Figure 11).
  const NnModel m = Bert(12, 8);
  const PipelineEngine engine(FastLinkConfig(4, 4));
  const double gpipe =
      engine.Run(m, PipelineStrategy::kGPipe).metrics.throughput;
  const double pipe1 =
      engine.Run(m, PipelineStrategy::kOooPipe1).metrics.throughput;
  const double pipe2 =
      engine.Run(m, PipelineStrategy::kOooPipe2).metrics.throughput;
  EXPECT_GT(pipe1, gpipe);
  EXPECT_GT(pipe2, pipe1);
  EXPECT_GT(pipe2 / gpipe, 1.2);  // paper band: 1.41-1.99 at cluster scale
}

TEST(PipelineEngineTest, PipeDreamReportsStaleness) {
  const NnModel m = Bert(12, 8);
  const PipelineEngine engine(FastLinkConfig(4, 4));
  const PipelineResult pd = engine.Run(m, PipelineStrategy::kPipeDream);
  EXPECT_EQ(pd.weight_versions, 4);
  const PipelineResult gp = engine.Run(m, PipelineStrategy::kGPipe);
  EXPECT_EQ(gp.weight_versions, 1);
  // Weight stashing buys throughput at the cost of staleness.
  EXPECT_GT(pd.metrics.throughput, gp.metrics.throughput);
}

TEST(PipelineEngineTest, PipeDreamStashingCostsMemory) {
  const NnModel m = Bert(12, 8);
  const PipelineEngine engine(FastLinkConfig(4, 4));
  const PipelineResult pd = engine.Run(m, PipelineStrategy::kPipeDream);
  const PipelineResult gp = engine.Run(m, PipelineStrategy::kGPipe);
  EXPECT_GT(pd.metrics.peak_memory_bytes, gp.metrics.peak_memory_bytes);
}

TEST(PipelineEngineTest, SlowInterconnectHurtsModuloMost) {
  // Figure 11b: on 10GbE, fine-grained modulo allocation's communication
  // dominates; grouping recovers performance.
  const NnModel m = Bert(12, 8);
  PipelineConfig config = FastLinkConfig(4, 4);
  config.use_link_override = true;
  config.link_override = LinkSpec::Eth10G();
  config.modulo_group_size = 1;
  const double fine = PipelineEngine(config)
                          .Run(m, PipelineStrategy::kOooPipe2)
                          .metrics.throughput;
  config.modulo_group_size = 2;
  const double grouped = PipelineEngine(config)
                             .Run(m, PipelineStrategy::kOooPipe2)
                             .metrics.throughput;
  EXPECT_GT(grouped, fine);
}

TEST(PipelineEngineTest, UtilizationAndDeterminism) {
  const NnModel m = Bert(12, 8);
  const PipelineEngine engine(FastLinkConfig(4, 4));
  const PipelineResult a = engine.Run(m, PipelineStrategy::kOooPipe2);
  const PipelineResult b = engine.Run(m, PipelineStrategy::kOooPipe2);
  EXPECT_EQ(a.metrics.iteration_time, b.metrics.iteration_time);
  EXPECT_GT(a.metrics.gpu_utilization, 0.0);
  EXPECT_LE(a.metrics.gpu_utilization, 1.0);
  EXPECT_EQ(a.per_gpu_peak_memory.size(), 4u);
}

TEST(PipelineEngineTest, GradientFastForwardingRaisesMemoryModuloRemovesIt) {
  // Section 8.4.1 memory discussion: fast-forwarding stores inputs of the
  // delayed computations; modulo allocation hands activations over and
  // computes promptly.
  const NnModel m = Bert(12, 8);
  const PipelineEngine engine(FastLinkConfig(4, 4));
  const PipelineResult gp = engine.Run(m, PipelineStrategy::kGPipe);
  const PipelineResult p1 = engine.Run(m, PipelineStrategy::kOooPipe1);
  EXPECT_GE(p1.metrics.peak_memory_bytes,
            gp.metrics.peak_memory_bytes * 99 / 100);
}

TEST(PipelineEngineTest, ThroughputScalesWithGpus) {
  const NnModel m = Bert(24, 4);
  const double g4 = PipelineEngine(FastLinkConfig(4, 8))
                        .Run(m, PipelineStrategy::kOooPipe2)
                        .metrics.throughput;
  const double g8 = PipelineEngine(FastLinkConfig(8, 8))
                        .Run(m, PipelineStrategy::kOooPipe2)
                        .metrics.throughput;
  EXPECT_GT(g8, g4 * 1.2);
}

// ---------------------------------------------------------------------------
// Executor vs event path (DESIGN.md §6.3, §9.2). Runs outside an
// ObserverScope take the exact message-level executor, which may stop
// stepping a PipeDream run at a repeated boundary; inside one they take the
// SimEngine + Link event path, which steps every iteration. Both must
// produce every result field bit for bit, and the event tally too when the
// executor stepped every iteration.

constexpr PipelineStrategy kAllStrategies[] = {
    PipelineStrategy::kGPipe,    PipelineStrategy::kDapple,
    PipelineStrategy::kPipeDream, PipelineStrategy::kMegatron,
    PipelineStrategy::kMegatronFF, PipelineStrategy::kOooPipe1,
    PipelineStrategy::kOooPipe2};

struct PipelineRun {
  PipelineResult result;
  ReplayStats stats;
  uint64_t events = 0;  // SimEngine tally delta
};

PipelineRun RunPipeline(const PipelineConfig& config, const NnModel& model,
                        PipelineStrategy strategy) {
  PipelineRun run;
  const uint64_t before = SimEngine::TotalProcessedEvents();
  run.result = PipelineEngine(config).Run(model, strategy, nullptr, &run.stats);
  run.events = SimEngine::TotalProcessedEvents() - before;
  return run;
}

// Returns the executor's run after checking it against the event path.
PipelineRun ExpectExecutorMatchesEventPath(const PipelineConfig& config,
                                           const NnModel& model,
                                           PipelineStrategy strategy,
                                           const std::string& what) {
  SimValidator validator;
  PipelineRun event;
  {
    ObserverScope scope(&validator);
    event = RunPipeline(config, model, strategy);
  }
  EXPECT_TRUE(validator.ok()) << what << ": " << validator.Summary();
  const PipelineRun exec = RunPipeline(config, model, strategy);
  EXPECT_FALSE(event.stats.executor) << what;
  EXPECT_TRUE(exec.stats.executor) << what;

  const TrainMetrics& a = exec.result.metrics;
  const TrainMetrics& b = event.result.metrics;
  EXPECT_EQ(a.iteration_time, b.iteration_time) << what;
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization) << what;
  EXPECT_EQ(a.comm_comp_ratio, b.comm_comp_ratio) << what;
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes) << what;
  EXPECT_EQ(a.oom, b.oom) << what;
  EXPECT_EQ(exec.result.assignment, event.result.assignment) << what;
  EXPECT_EQ(exec.result.weight_versions, event.result.weight_versions)
      << what;
  EXPECT_EQ(exec.result.per_gpu_peak_memory, event.result.per_gpu_peak_memory)
      << what;
  EXPECT_EQ(exec.result.comm_comp_ratio, event.result.comm_comp_ratio) << what;
  EXPECT_EQ(exec.result.fwd_start, event.result.fwd_start) << what;
  EXPECT_EQ(exec.result.wgrad_done, event.result.wgrad_done) << what;

  const int total = event.stats.total_iterations;
  EXPECT_EQ(exec.stats.total_iterations, total) << what;
  EXPECT_EQ(event.stats.simulated_iterations, total) << what;
  EXPECT_FALSE(event.stats.replayed) << what;
  EXPECT_GE(exec.stats.simulated_iterations, 1) << what;
  EXPECT_LE(exec.stats.simulated_iterations, total) << what;
  EXPECT_EQ(exec.stats.replayed, exec.stats.simulated_iterations < total)
      << what;
  if (strategy == PipelineStrategy::kPipeDream) {
    EXPECT_TRUE(exec.stats.attempted) << what;
    EXPECT_EQ(event.stats.fallback_reason, "observed") << what;
  } else {
    EXPECT_EQ(total, 1) << what;
    EXPECT_EQ(exec.stats.fallback_reason, "synchronous") << what;
    EXPECT_EQ(event.stats.fallback_reason, "synchronous") << what;
  }
  if (exec.stats.simulated_iterations == total) {
    EXPECT_EQ(exec.events, event.events) << what;
  } else {
    EXPECT_LT(exec.events, event.events) << what;
  }
  return exec;
}

struct LinkCase {
  const char* name;
  bool override_link;
  LinkSpec spec;
  TimeNs unit_time;
};

TEST(PipelineExecutorTest, MatchesEventPathOverTheGrid) {
  const LinkCase links[] = {
      {"pub-b", false, {}, 0},
      {"eth10g", true, LinkSpec::Eth10G(), 0},
      {"ideal", true, {"ideal", 10000.0, 0}, 0},
      {"unit-ideal", true, {"unit-ideal", 1e6, 0}, Ms(1)},
  };
  const NnModel bert = Bert(12, 8);
  const NnModel ffnn = Ffnn(8, 64);
  int runs = 0;
  int replayed = 0;
  for (const LinkCase& link : links) {
    for (const int gpus : {1, 2, 4, 8}) {
      for (const int micro : {1, 3, 4}) {
        PipelineConfig config;
        config.cluster = ClusterSpec::PubB(1);
        config.num_gpus = gpus;
        config.num_micro_batches = micro;
        config.use_link_override = link.override_link;
        config.link_override = link.spec;
        config.unit_time = link.unit_time;
        const NnModel& model = gpus == 8 ? bert : ffnn;
        for (const PipelineStrategy s : kAllStrategies) {
          // Only PipeDream runs more than one iteration.
          for (const int measured : {1, 3, 16, 64}) {
            if (measured != 1 && s != PipelineStrategy::kPipeDream) {
              continue;
            }
            config.measured_iterations = measured;
            const PipelineRun exec = ExpectExecutorMatchesEventPath(
                config, model, s,
                StrFormat("%s, %d GPUs, M=%d, %s, %d measured", link.name,
                          gpus, micro, PipelineStrategyName(s), measured));
            replayed += exec.stats.replayed ? 1 : 0;
            ++runs;
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 4 * 4 * 3 * (6 + 4));
  // Of the 48 PipeDream runs at each length, none skips a period at 1
  // measured iteration, 13 do at 3, and all but 5 at 16 and all but 1 at 64:
  // BERT-12 on 8 GPUs over Eth10G and unit-time links repeats late.
  EXPECT_EQ(replayed, 13 + 43 + 47);
}

// The iterations the executor steps for PipeDream runs of `from` up to
// `from + count - 1` measured iterations. A run whose boundary repeats with
// period p moves its horizon in by whole periods and steps its drain, so
// the count repeats with period p as the run grows.
std::vector<int> SteppedOverRunLengths(PipelineConfig config,
                                       const NnModel& model, int from,
                                       int count) {
  std::vector<int> stepped;
  for (int measured = from; measured < from + count; ++measured) {
    config.measured_iterations = measured;
    stepped.push_back(
        RunPipeline(config, model, PipelineStrategy::kPipeDream)
            .stats.simulated_iterations);
  }
  return stepped;
}

// PipeDream's three run shapes on hostbench's Pub-B configurations:
// boundaries that repeat with period 1 and with period 3, and boundaries
// that do not repeat within the run, which then steps every iteration.
TEST(PipelineExecutorTest, MatchesEventPathOnEveryPipeDreamRunShape) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.measured_iterations = 16;

  // BERT-12, 4 GPUs, 4 micro-batches: period 1.
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  const NnModel bert12 = Bert(12, 64);
  EXPECT_TRUE(ExpectExecutorMatchesEventPath(config, bert12,
                                             PipelineStrategy::kPipeDream,
                                             "period 1")
                  .stats.replayed);
  EXPECT_EQ(SteppedOverRunLengths(config, bert12, 16, 6),
            std::vector<int>(6, 5));

  // BERT-24, 4 GPUs, 4 micro-batches: period 3, found only by comparing
  // with every earlier boundary.
  const NnModel bert24 = Bert(24, 64);
  EXPECT_TRUE(ExpectExecutorMatchesEventPath(config, bert24,
                                             PipelineStrategy::kPipeDream,
                                             "period 3")
                  .stats.replayed);
  EXPECT_EQ(SteppedOverRunLengths(config, bert24, 16, 6),
            (std::vector<int>{8, 6, 7, 8, 6, 7}));

  // BERT-24, 8 GPUs, 8 micro-batches: the period (11) is longer than what
  // a 16-measured run leaves after its fill.
  config.num_gpus = 8;
  config.num_micro_batches = 8;
  const NnModel bert24_m8 = Bert(24, 32);
  const PipelineRun no_repeat = ExpectExecutorMatchesEventPath(
      config, bert24_m8, PipelineStrategy::kPipeDream, "no repeat");
  EXPECT_FALSE(no_repeat.stats.replayed);
  EXPECT_EQ(no_repeat.stats.simulated_iterations, 17);
  EXPECT_EQ(no_repeat.stats.fallback_reason, "aperiodic");
}

// Unit-time mode drops layer 0's dO. PipeDream's in-flight cap must then
// count layer 0's backward by its dW, or, for a parameter-free layer 0, by
// its gradient's arrival; counting dO completions alone let the cap close
// on the GPU owning layer 0 and the run stalled.
TEST(PipelineEngineTest, UnitTimePipeDreamCountsLayer0Backward) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 1;
  config.num_micro_batches = 1;
  config.unit_time = Us(1);
  config.measured_iterations = 16;
  // 8 forwards, 7 dO and 8 dW per iteration, back to back on one GPU.
  const PipelineResult r =
      ExpectExecutorMatchesEventPath(config, Ffnn(8, 64),
                                     PipelineStrategy::kPipeDream,
                                     "unit-time PipeDream")
          .result;
  EXPECT_EQ(r.metrics.iteration_time, Us(23));

  // Layer 0 without parameters has no backward op at all: 8 forwards and
  // 7 dO and 7 dW per iteration.
  NnModel pool_first = Ffnn(8, 64);
  pool_first.layers[0] = MakePool("pool0", "b0", 64, 4096, 1, 1);
  for (const int gpus : {1, 2}) {
    config.num_gpus = gpus;
    const PipelineResult p =
        ExpectExecutorMatchesEventPath(
            config, pool_first, PipelineStrategy::kPipeDream,
            StrFormat("unit-time PipeDream, parameter-free layer 0, %d GPUs",
                      gpus))
            .result;
    EXPECT_GT(p.metrics.iteration_time, 0);
    if (gpus == 1) {
      EXPECT_EQ(p.metrics.iteration_time, Us(22));
    }
  }
}

// Same-nanosecond events in a traced run of the event path. A transfer's
// trace event spans its first chunk's start to its completion, on its
// link's track; its name says which layer's activation or gradient it
// carries, and so its destination GPU. An op's spans the op on its GPU's
// track.
struct Ties {
  // Completions of messages of several chunks on different links at one
  // time whose last chunks also started at one time.
  int link_pairs = 0;
  // Completions at the time an op completes on the message's destination.
  int with_destination_op = 0;
};

Ties CountTies(const PipelineConfig& config, const NnModel& model,
               PipelineStrategy strategy) {
  TraceRecorder trace;
  const PipelineEngine engine(config);
  engine.Run(model, strategy, &trace);
  const LayerAssignment assignment = engine.AssignmentFor(model, strategy);
  std::vector<const TraceEvent*> comm;
  std::vector<const TraceEvent*> ops;
  for (const TraceEvent& ev : trace.events()) {
    (ev.category == "comm" ? comm : ops).push_back(&ev);
  }
  // Source and destination GPU of a transfer: layer l's activation goes to
  // the owner of l + 1, the gradient into l comes back from it.
  auto ends = [&assignment](const TraceEvent& ev) {
    int layer = -1;
    const bool act = std::sscanf(ev.name.c_str(), "act[%d]", &layer) == 1;
    EXPECT_TRUE(act || std::sscanf(ev.name.c_str(), "grad[%d]", &layer) == 1)
        << ev.name;
    const int owner = assignment[layer];
    const int next = assignment[layer + 1];
    return act ? std::make_pair(owner, next) : std::make_pair(next, owner);
  };
  // Chunk count and last-chunk start of a transfer.
  auto last_chunk = [&config, &ends](const TraceEvent& ev) {
    const auto [src, dst] = ends(ev);
    const ChunkTiming timing(config.use_link_override
                                 ? config.link_override
                                 : config.cluster.LinkBetween(src, dst),
                             256 << 10, std::stoll(ev.args.at("bytes")));
    return std::make_pair(timing.chunks, ev.end() - timing.last);
  };
  Ties ties;
  for (size_t i = 0; i < comm.size(); ++i) {
    for (size_t j = i + 1; j < comm.size(); ++j) {
      if (comm[i]->track == comm[j]->track ||
          comm[i]->end() != comm[j]->end()) {
        continue;
      }
      const auto [chunks_i, start_i] = last_chunk(*comm[i]);
      const auto [chunks_j, start_j] = last_chunk(*comm[j]);
      if (chunks_i > 1 && chunks_j > 1 && start_i == start_j) {
        ++ties.link_pairs;
      }
    }
    const int dst = ends(*comm[i]).second;
    for (const TraceEvent* op : ops) {
      if (op->track == dst && op->end() == comm[i]->end()) {
        ++ties.with_destination_op;
      }
    }
  }
  return ties;
}

PipelineConfig LinkConfig(LinkSpec link, int gpus, int micro_batches) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = gpus;
  config.num_micro_batches = micro_batches;
  config.use_link_override = true;
  config.link_override = std::move(link);
  return config;
}

// Two messages of several chunks on different links complete at one
// nanosecond, and their last chunks started at one nanosecond: their order
// comes from walking both draw chains back to the events that started the
// messages.
TEST(PipelineExecutorTest, OrdersCompletionsTiedOnTimeAndLastChunkStart) {
  PipelineConfig config = LinkConfig(LinkSpec::Eth10G(), 8, 4);
  config.measured_iterations = 3;  // too short to replay: all traced
  const NnModel model = Bert(12, 8);
  EXPECT_GT(CountTies(config, model, PipelineStrategy::kPipeDream).link_pairs,
            0);
  ExpectExecutorMatchesEventPath(config, model, PipelineStrategy::kPipeDream,
                                 "link-pair tie");
}

// A message completes at the nanosecond an op completes on its destination
// GPU: which runs first decides what that GPU picks next.
TEST(PipelineExecutorTest, OrdersCompletionTiedWithDestinationOp) {
  const PipelineConfig config = LinkConfig(LinkSpec::Eth10G(), 2, 3);
  const NnModel model = Ffnn(8, 64);
  EXPECT_GT(
      CountTies(config, model, PipelineStrategy::kGPipe).with_destination_op,
      0);
  ExpectExecutorMatchesEventPath(config, model, PipelineStrategy::kGPipe,
                                 "destination-op tie");
}

// The executor steps each message once but adds every chunk event the
// event path processes to SimEngine's tally.
TEST(PipelineExecutorTest, CountsSkippedChunksIntoTheTally) {
  const PipelineConfig config =
      LinkConfig({"ideal", 10000.0, 0}, /*gpus=*/2, /*micro_batches=*/1);
  const NnModel model = Ffnn(8, 64);  // 1 MiB activations: 4 chunks each
  const PipelineRun exec =
      ExpectExecutorMatchesEventPath(config, model, PipelineStrategy::kGPipe,
                                     "tally");
  // 8 forwards + 8 dO (layer 0's included) + 8 dW, one iteration end, and
  // one activation and one gradient across the stage boundary, 4 chunks
  // each.
  EXPECT_EQ(exec.events, 24u + 1u + 2u * 4u);
}

}  // namespace
}  // namespace oobp

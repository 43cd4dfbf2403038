#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/hw/link.h"
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
// Executor vs event path (DESIGN.md §6.3). Untraced runs outside a
// ValidationScope take the exact message-level executor; inside one they
// take the SimEngine + Link event path. Both must produce every result
// field, the replay outcome and the event tally bit for bit.

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
    ValidationScope scope(&validator);
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

  EXPECT_EQ(exec.stats.attempted, event.stats.attempted) << what;
  EXPECT_EQ(exec.stats.replayed, event.stats.replayed) << what;
  EXPECT_EQ(exec.stats.simulated_iterations, event.stats.simulated_iterations)
      << what;
  EXPECT_EQ(exec.stats.total_iterations, event.stats.total_iterations)
      << what;
  EXPECT_EQ(exec.stats.fallback_reason, event.stats.fallback_reason) << what;
  EXPECT_EQ(exec.events, event.events) << what;
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
        config.measured_iterations = 16;  // PipeDream replays
        const NnModel& model = gpus == 8 ? bert : ffnn;
        for (const PipelineStrategy s : kAllStrategies) {
          if (link.unit_time > 0 && s == PipelineStrategy::kPipeDream) {
            // Unit-time mode drops layer 0's dO, so PipeDream's in-flight
            // cap never releases and the stream stalls (ROADMAP).
            continue;
          }
          ExpectExecutorMatchesEventPath(
              config, model, s,
              StrFormat("%s, %d GPUs, M=%d, %s", link.name, gpus, micro,
                        PipelineStrategyName(s)));
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 4 * 4 * 3 * 7 - 4 * 3);
}

// PipeDream's three run shapes: replayed, too short to replay, and a
// replay attempt whose detection fails (full rerun).
TEST(PipelineExecutorTest, MatchesEventPathOnEveryPipeDreamRunShape) {
  const NnModel bert = Bert(12, 8);
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.measured_iterations = 16;
  EXPECT_TRUE(ExpectExecutorMatchesEventPath(config, bert,
                                             PipelineStrategy::kPipeDream,
                                             "replayed")
                  .stats.replayed);
  config.measured_iterations = 3;
  EXPECT_EQ(ExpectExecutorMatchesEventPath(config, bert,
                                           PipelineStrategy::kPipeDream,
                                           "short run")
                .stats.fallback_reason,
            "short-run");
  config.num_gpus = 2;
  config.num_micro_batches = 1;
  config.measured_iterations = 24;
  EXPECT_EQ(ExpectExecutorMatchesEventPath(config, Ffnn(4, 64),
                                           PipelineStrategy::kPipeDream,
                                           "aperiodic")
                .stats.fallback_reason,
            "aperiodic");
}

// Same-nanosecond events in a traced run of the event path. A transfer's
// trace event spans its first chunk's start to its completion, on track
// 100 + src * 64 + dst; an op's spans the op on its GPU's track.
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
  PipelineEngine(config).Run(model, strategy, &trace);
  std::vector<const TraceEvent*> comm;
  std::vector<const TraceEvent*> ops;
  for (const TraceEvent& ev : trace.events()) {
    (ev.category == "comm" ? comm : ops).push_back(&ev);
  }
  // Chunk count and last-chunk start of a transfer.
  auto last_chunk = [&config](const TraceEvent& ev) {
    const int src = (ev.track - 100) / 64;
    const int dst = (ev.track - 100) % 64;
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
    for (const TraceEvent* op : ops) {
      if (op->track == (comm[i]->track - 100) % 64 &&
          op->end() == comm[i]->end()) {
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

#include "src/runner/sweep_scenarios.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/list_dp_scheduler.h"
#include "src/core/recompute.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/hybrid_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"

namespace oobp {
namespace {

// ---------------------------------------------------------------------------
// Figure 13 (a/b): pipeline-parallel scaling on the Pub-B cluster.

PipelineEngine MakePubBEngine(int gpus, int micro_batches) {
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.num_gpus = gpus;
  config.num_micro_batches = micro_batches;
  return PipelineEngine(config);
}

// Pre-training runs shard the input/output embedding GEMMs across a
// tensor-parallel group (Megatron-style; the paper dedicates 4 GPUs to
// GPT-3's embedding). Model that by quartering the head layer's cost —
// applied to every system equally.
NnModel WithShardedHead(NnModel model) {
  Layer& head = model.layers.back();
  head.fwd_flops /= 4;
  head.dgrad_flops /= 4;
  head.wgrad_flops /= 4;
  head.fwd_bytes /= 4;
  head.dgrad_bytes /= 4;
  head.wgrad_bytes /= 4;
  head.fwd_blocks /= 4;
  head.stash_bytes /= 4;
  return model;
}

// BERT with a sharded head, memoized: a scaling sweep evaluates the same
// (layers, micro-batch) point once per strategy and the perf suite repeats
// the whole scenario, so the layer table is built once process-wide.
std::shared_ptr<const NnModel> ShardedBert(int layers, int micro_batch) {
  return CachedModel(
      StrFormat("sharded-bert:L%d:B%d", layers, micro_batch),
      [layers, micro_batch] {
        return WithShardedHead(Bert(layers, micro_batch));
      });
}

ScenarioResult Fig13WeakScaling(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("weak scaling: BERT-{12,24,48} on 8/16/32 V100 (Pub-B)");
  struct WeakPoint {
    int gpus;
    int bert;
    int global_batch;
  };
  const std::vector<WeakPoint> weak = {{8, 12, 512}, {16, 24, 768},
                                       {32, 48, 1024}};
  for (const WeakPoint& p : weak) {
    const int micro_batches = p.gpus;
    const std::shared_ptr<const NnModel> micro =
        ShardedBert(p.bert, std::max(1, p.global_batch / micro_batches));
    const PipelineEngine engine = MakePubBEngine(p.gpus, micro_batches);
    const double gpipe =
        engine.Run(*micro, PipelineStrategy::kGPipe).metrics.throughput;
    const PipelineResult pd = engine.Run(*micro, PipelineStrategy::kPipeDream);
    const double ooo =
        engine.Run(*micro, PipelineStrategy::kOooPipe2).metrics.throughput;
    const std::string prefix = StrFormat("g%d.", p.gpus);
    result.Set(prefix + "gpipe_throughput", gpipe);
    result.Set(prefix + "pipedream_throughput", pd.metrics.throughput);
    result.Set(prefix + "pipedream_weight_versions", pd.weight_versions);
    result.Set(prefix + "ooo_throughput", ooo);
    result.Set(prefix + "ooo_over_gpipe", ooo / gpipe);
    result.Set(prefix + "ooo_over_pd", ooo / pd.metrics.throughput);
  }
  return result;
}

ScenarioResult Fig13StrongBert(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("strong scaling: BERT-24/48, OOO-Pipe2, 8-32 V100 (Pub-B)");
  for (const int bert : {24, 48}) {
    double tp8 = 0.0;
    for (const int gpus : {8, 16, 32}) {
      if (gpus > bert) {
        continue;  // more GPUs than transformer layers
      }
      const int micro_batches = 2 * gpus;
      const std::shared_ptr<const NnModel> micro =
          ShardedBert(bert, std::max(1, 512 / micro_batches));
      const double tp = MakePubBEngine(gpus, micro_batches)
                            .Run(*micro, PipelineStrategy::kOooPipe2)
                            .metrics.throughput;
      result.Set(StrFormat("b%d.g%d.throughput", bert, gpus), tp);
      if (gpus == 8) {
        tp8 = tp;
      } else if (tp8 > 0) {
        result.Set(StrFormat("b%d.scaling_8_to_%d", bert, gpus), tp / tp8);
      }
    }
  }
  return result;
}

ScenarioResult Fig13StrongGpt3(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("strong scaling: GPT-3 Medium (sharded head), OOO-Pipe2");
  // 26 pipeline layers (embed + 24 decoders + head) bound the stage count.
  for (const int gpus : {8, 12, 16, 24}) {
    const int micro_batches = 2 * gpus;
    const int micro_batch = std::max(1, 96 / micro_batches);
    const std::shared_ptr<const NnModel> micro = CachedModel(
        StrFormat("sharded-gpt3m:B%d", micro_batch),
        [micro_batch] { return WithShardedHead(Gpt3Medium(micro_batch)); });
    const double tp = MakePubBEngine(gpus, micro_batches)
                          .Run(*micro, PipelineStrategy::kOooPipe2)
                          .metrics.throughput;
    result.Set(StrFormat("g%d.throughput", gpus), tp);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.4.2: Megatron-2 interleaved schedule vs OOO-Pipe2, BERT-48.

ScenarioResult AnaMegatron(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("Megatron-2 interleaved vs OOO-Pipe2, BERT-48 (Pub-B)");
  std::vector<double> ff_gains, ooo_vs_mega;
  for (const int gpus : {8, 16, 24}) {
    const int micro_batches = gpus;
    const std::shared_ptr<const NnModel> micro =
        ShardedBert(48, std::max(1, 512 / micro_batches));
    const PipelineEngine engine = MakePubBEngine(gpus, micro_batches);
    const double gpipe =
        engine.Run(*micro, PipelineStrategy::kGPipe).metrics.throughput;
    const double mega =
        engine.Run(*micro, PipelineStrategy::kMegatron).metrics.throughput;
    const double mega_ff =
        engine.Run(*micro, PipelineStrategy::kMegatronFF).metrics.throughput;
    const double ooo =
        engine.Run(*micro, PipelineStrategy::kOooPipe2).metrics.throughput;
    const std::string p = StrFormat("g%d.", gpus);
    result.Set(p + "gpipe_throughput", gpipe);
    result.Set(p + "megatron_throughput", mega);
    result.Set(p + "megatron_ff_throughput", mega_ff);
    result.Set(p + "ooo_throughput", ooo);
    result.Set(p + "ooo_over_megatron", ooo / mega);
    result.Set(p + "ff_gain", mega_ff / mega);
    ff_gains.push_back(mega_ff / mega);
    ooo_vs_mega.push_back(ooo / mega);
  }
  double ff_avg = 0.0, ooo_max = 0.0;
  for (size_t i = 0; i < ff_gains.size(); ++i) {
    ff_avg += ff_gains[i] / ff_gains.size();
    ooo_max = std::max(ooo_max, ooo_vs_mega[i]);
  }
  result.Set("ff_gain_avg", ff_avg);
  result.Set("ooo_over_megatron_max", ooo_max);
  return result;
}

// Note: the Megatron comparison uses fig13's sharded head (WithShardedHead,
// which also quarters fwd_blocks) so the cached model can be shared; the
// occupancy of one GEMM head has no measurable effect on these ratios.

// ---------------------------------------------------------------------------
// Section 8.3: reverse first-k on ResNet-50 over Pub-A data parallelism.

ScenarioResult AnaReverseK(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("reverse first-k, ResNet-50 batch 128, 16/32x V100 (Pub-A)");
  const std::shared_ptr<const NnModel> model =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const TrainGraph graph(model.get());

  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = 16;
  const DataParallelEngine engine(config);

  int64_t total_volume = 0;
  for (int l = 0; l < model->num_layers(); ++l) {
    total_volume += engine.SyncVolume(*model, l);
  }
  result.Set("total_sync_mb", static_cast<double>(total_volume) / 1e6);
  result.Set("channel_gbps", engine.ChannelBandwidthGbps());

  const TrainMetrics base = engine.Run(*model, graph.ConventionalBackprop());
  result.SetMetrics("byteps.", base);

  for (int k : {0, 10, 20, 30, 45, 53}) {
    const ReverseFirstKResult rk = ReverseFirstK(graph, k);
    const TrainMetrics m = engine.Run(*model, rk.order);
    result.Set(StrFormat("k%d.gain", rk.effective_k),
               m.throughput / base.throughput);
  }

  const KSearchResult search = SearchBestK(model->num_layers(), [&](int k) {
    return engine.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  const TrainMetrics best =
      engine.Run(*model, ReverseFirstK(graph, search.best_k).order);
  result.Set("g16.best_k", search.best_k);
  result.Set("g16.probes", static_cast<double>(search.evaluations.size()));
  result.Set("g16.gain", best.throughput / base.throughput);

  DataParallelConfig config32 = config;
  config32.num_gpus = 32;
  const DataParallelEngine engine32(config32);
  const TrainMetrics base32 =
      engine32.Run(*model, graph.ConventionalBackprop());
  const KSearchResult search32 = SearchBestK(model->num_layers(), [&](int k) {
    return engine32.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  result.Set("g32.best_k", search32.best_k);
  result.Set("g32.gain", search32.best_throughput / base32.throughput);
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.2: per-region co-run capacity for DenseNet-121 on the V100.

ScenarioResult AnaCorun(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("per-region co-run capacity, DenseNet-121(k32) on V100");
  const std::shared_ptr<const NnModel> model = CachedModel(
      "densenet:L121:k32:B32:I224", [] { return DenseNet(121, 32, 32, 224); });
  const TrainGraph graph(model.get());
  const GpuSpec gpu = GpuSpec::V100();
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(gpu, SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));
  const double capacity = gpu.slot_capacity();

  double best_low_occ = 0.0;   // regions with free slots
  double best_high_occ = 0.0;  // saturated regions
  for (int r = 0; r < profiler.num_regions(); ++r) {
    const Region& region = profiler.region(r);
    double occ_sum = 0.0;
    for (const TrainOp& op : region.main_ops) {
      const KernelCost kc = cost->Cost(model->layers[op.layer], op.type);
      occ_sum += EffectiveOccupancy(kc.thread_blocks, capacity) / capacity;
    }
    const double avg_occ = occ_sum / region.main_ops.size();

    double best = 1.0;
    for (int l = 0; l < model->num_layers(); ++l) {
      if (!graph.HasWgrad(l)) {
        continue;
      }
      best = std::max(
          best, profiler.SpeedupAt(r, {TrainOpType::kWeightGrad, l}, 0));
    }
    const std::string p = StrFormat("r%d.", r);
    result.Set(p + "main_ms", ToMs(profiler.MainDuration(r)));
    result.Set(p + "avg_occupancy", avg_occ);
    result.Set(p + "best_speedup", best);
    if (avg_occ > 0.9) {
      best_high_occ = std::max(best_high_occ, best);
    } else {
      best_low_occ = std::max(best_low_occ, best);
    }
  }
  result.Set("best_low_occ_speedup", best_low_occ);
  result.Set("best_high_occ_speedup", best_high_occ);
  return result;
}

// ---------------------------------------------------------------------------
// Section 4.1 / 8.2 ablation: Algorithm 1's joint schedule vs the "naive"
// sub-stream variant, which moves weight gradients to the sub stream in
// conventional order without reordering. Paper (DenseNet-121 k=12, batch
// 32): naive 1.39x and joint 1.54x over XLA.

ScenarioResult AblJointVsNaive(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("naive sub-stream vs joint scheduling over XLA, V100, "
                 "batch 32");
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();
  const std::shared_ptr<const CostModel> cost = CachedCostModel(gpu, xla);
  const std::pair<const char*, std::shared_ptr<const NnModel>> cases[] = {
      {"densenet121_k12", CachedModel("densenet:L121:k12:B32:I32",
                                      [] { return DenseNet(121, 12, 32, 32); })},
      {"densenet121_k32", CachedModel("densenet:L121:k32:B32:I32",
                                      [] { return DenseNet(121, 32, 32, 32); })},
      {"mobilenet_a025", CachedModel("mobilenet:a0.25:B32:I224", [] {
         return MobileNetV3Large(0.25, 32);
       })},
  };
  for (const auto& [key, model] : cases) {
    const TrainGraph graph(model.get());
    const double base = SingleGpuEngine({gpu, xla, false})
                            .Run(*model, ConventionalIteration(graph))
                            .throughput;
    const double naive = SingleGpuEngine({gpu, xla, true})
                             .Run(*model, NaiveSubStreamIteration(graph))
                             .throughput;
    const CorunProfiler profiler(graph, *cost, BuildRegions(graph));
    const double joint =
        SingleGpuEngine({gpu, xla, true})
            .Run(*model, MultiRegionJointSchedule(graph, profiler).schedule)
            .throughput;
    const std::string p = std::string(key) + ".";
    result.Set(p + "xla_throughput", base);
    result.Set(p + "naive_over_xla", naive / base);
    result.Set(p + "joint_over_xla", joint / base);
  }
  const double naive = result.Get("densenet121_k12.naive_over_xla");
  const double joint = result.Get("densenet121_k12.joint_over_xla");
  result.Set("joint_ge_naive", joint >= naive * 0.999 ? 1 : 0);
  return result;
}

// ---------------------------------------------------------------------------
// Section 5.1 ablation: the concave k search against an exhaustive sweep
// over every k, on Pub-A data parallelism. The paper: the heuristic "can
// efficiently find the optimal k".

ScenarioResult AblKSearch(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("concave k search vs exhaustive k sweep, Pub-A BytePS, "
                 "2 measured iterations");
  struct Case {
    const char* key;
    std::shared_ptr<const NnModel> model;
    int gpus;
  };
  const std::shared_ptr<const NnModel> r50 =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const Case cases[] = {
      {"r50.g16", r50, 16},
      {"r101.g16",
       CachedModel("resnet:L101:B96", [] { return ResNet(101, 96); }), 16},
      {"r50.g32", r50, 32},
  };
  double worst_quality = 1.0;
  for (const Case& c : cases) {
    const NnModel& model = *c.model;
    const TrainGraph graph(&model);
    DataParallelConfig config;
    config.cluster = ClusterSpec::PubA();
    config.num_gpus = c.gpus;
    config.measured_iterations = 2;
    const DataParallelEngine engine(config);
    auto throughput = [&](int k) {
      return engine.Run(model, ReverseFirstK(graph, k).order).throughput;
    };
    const KSearchResult search = SearchBestK(model.num_layers(), throughput);
    double exhaustive_best = 0;
    int exhaustive_k = 0;
    for (int k = 0; k <= model.num_layers(); ++k) {
      const double t = throughput(k);
      if (t > exhaustive_best) {
        exhaustive_best = t;
        exhaustive_k = k;
      }
    }
    const double quality = search.best_throughput / exhaustive_best;
    worst_quality = std::min(worst_quality, quality);
    const std::string p = std::string(c.key) + ".";
    result.Set(p + "probes", static_cast<double>(search.evaluations.size()));
    result.Set(p + "best_k", search.best_k);
    result.Set(p + "exhaustive_k", exhaustive_k);
    result.Set(p + "quality", quality);
  }
  result.Set("worst_quality", worst_quality);
  return result;
}

// ---------------------------------------------------------------------------
// Section 5.1, last paragraph: reverse first-k vs an explicit list scheduler
// for data-parallel training (ResNet-50, 32 V100s on Pub-A). The list
// scheduler needs per-layer sync-time estimates; reverse first-k only needs
// a throughput probe per k. Estimates off by 4x either way show how much
// the list scheduler depends on them.

ScenarioResult AblListScheduling(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("reverse first-k vs list scheduling, ResNet-50 batch 128, "
                 "32x V100 (Pub-A)");
  const std::shared_ptr<const NnModel> model =
      CachedModel("resnet:L50:B128", [] { return ResNet(50, 128); });
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlow());

  DataParallelConfig config;
  config.cluster = ClusterSpec::PubA();
  config.num_gpus = 32;
  const DataParallelEngine engine(config);

  const double conv =
      engine.Run(*model, graph.ConventionalBackprop()).throughput;
  const KSearchResult search = SearchBestK(model->num_layers(), [&](int k) {
    return engine.Run(*model, ReverseFirstK(graph, k).order).throughput;
  });
  result.Set("conventional_throughput", conv);
  result.Set("reverse_k.best_k", search.best_k);
  result.Set("reverse_k.gain", search.best_throughput / conv);

  std::vector<TimeNs> ideal(model->num_layers());
  for (int l = 0; l < model->num_layers(); ++l) {
    ideal[l] = engine.IdealSyncTime(*model, l);
  }
  const std::pair<const char*, double> estimates[] = {
      {"list_exact", 1.0}, {"list_quarter", 0.25}, {"list_4x", 4.0}};
  for (const auto& [key, scale] : estimates) {
    std::vector<TimeNs> est(ideal);
    for (TimeNs& t : est) {
      t = static_cast<TimeNs>(t * scale);
    }
    const ListDpResult list =
        ListScheduleDataParallel(graph, BuildListDpInputs(*model, *cost, est));
    result.Set(std::string(key) + ".gain",
               engine.Run(*model, list.order).throughput / conv);
  }
  result.Set("reverse_k_over_list",
             result.Get("reverse_k.gain") / result.Get("list_exact.gain"));
  return result;
}

// ---------------------------------------------------------------------------
// Section 8.4.1 ablation: modulo-allocation grouping vs interconnect
// bandwidth, OOO-Pipe2 on BERT-24 (batch 96, 4 micro-batches, 4 V100s).
// Fine-grained modulo maximizes overlap but multiplies inter-GPU traffic;
// grouping trades stalls for bandwidth. Paper: per-transformer on NVLink,
// two transformers per group on 10 GbE.

ScenarioResult AblModuloGranularity(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("OOO-Pipe2 modulo group size sweep, BERT-24 b96, 4 "
                 "micro-batches, 4x V100");
  const std::shared_ptr<const NnModel> micro =
      CachedModel("bert:L24:B24", [] { return Bert(24, 24); });
  const std::pair<const char*, LinkSpec> links[] = {
      {"nvlink", LinkSpec::NvLink()},
      {"pcie", LinkSpec::PcIe3()},
      {"eth10g", LinkSpec::Eth10G()}};
  for (const auto& [key, link] : links) {
    double best_tp = 0;
    int best_group = 0;
    for (const int group : {1, 2, 3, 4, 6}) {
      PipelineConfig config;
      config.cluster = ClusterSpec::PubB(1);
      config.num_gpus = 4;
      config.num_micro_batches = 4;
      config.use_link_override = true;
      config.link_override = link;
      config.modulo_group_size = group;
      const PipelineResult r =
          PipelineEngine(config).Run(*micro, PipelineStrategy::kOooPipe2);
      const std::string p = StrFormat("%s.g%d.", key, group);
      result.Set(p + "throughput", r.metrics.throughput);
      result.Set(p + "comm_comp", r.comm_comp_ratio);
      if (r.metrics.throughput > best_tp) {
        best_tp = r.metrics.throughput;
        best_group = group;
      }
    }
    result.Set(std::string(key) + ".best_group", best_group);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Section 6 ablation: DAPPLE and OOO-Pipe2 8-GPU BERT-24 pipelines
// replicated into data-parallel groups (Pub-B), then reverse first-k inside
// OOO-Pipe2's deferred weight-gradient pool. Paper: adding data
// parallelism improves both by 30-35%; the optimal k is left as future
// work, so k is swept.

ScenarioResult AblHybrid(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("BERT-24 micro-batch 16, 8-GPU pipelines x 1/2/4 replicas "
                 "(Pub-B), 8 micro-batches");
  const std::shared_ptr<const NnModel> micro =
      CachedModel("bert:L24:B16", [] { return Bert(24, 16); });
  auto run = [&](int dp_groups, PipelineStrategy strategy, int k) {
    HybridConfig config;
    config.pipeline.cluster = ClusterSpec::PubB(5);
    config.pipeline.num_gpus = 8;
    config.pipeline.num_micro_batches = 8;
    config.pipeline.reverse_first_k = k;
    config.dp_groups = dp_groups;
    return HybridEngine(config).Run(*micro, strategy);
  };
  const std::pair<const char*, PipelineStrategy> strategies[] = {
      {"dapple", PipelineStrategy::kDapple},
      {"pipe2", PipelineStrategy::kOooPipe2}};
  for (const auto& [key, strategy] : strategies) {
    double one_replica = 0;
    for (const int replicas : {1, 2, 4}) {
      const HybridResult r = run(replicas, strategy, 0);
      if (replicas == 1) {
        one_replica = r.metrics.throughput;
      }
      const std::string p = StrFormat("%s.r%d.", key, replicas);
      result.Set(p + "throughput", r.metrics.throughput);
      result.Set(p + "exposed_sync_ms", ToMs(r.exposed_sync));
      result.Set(p + "gain", r.metrics.throughput / one_replica);
    }
  }
  // Reverse first-k inside OOO-Pipe2's deferred pool, 2 replicas.
  double k0 = 0, best_k_gain = 0;
  for (const int k : {0, 4, 8, 16, 26}) {
    const HybridResult r = run(2, PipelineStrategy::kOooPipe2, k);
    if (k == 0) {
      k0 = r.metrics.throughput;
    }
    best_k_gain = std::max(best_k_gain, r.metrics.throughput / k0);
    const std::string p = StrFormat("k%d.", k);
    result.Set(p + "throughput", r.metrics.throughput);
    result.Set(p + "exposed_sync_ms", ToMs(r.exposed_sync));
  }
  result.Set("best_k_gain", best_k_gain);
  return result;
}

// ---------------------------------------------------------------------------
// Section 6: activation checkpointing composes with reverse first-k. By the
// time the k deferred weight gradients run, most checkpointed segments are
// already re-computed and freed, so there is room to keep the k inputs.
// BERT-24 at micro-batch 16, k = 8, a checkpoint every 4 layers. Analytic:
// the memory model, no simulated device.

ScenarioResult AnaRecompute(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("reverse first-k (k=8) with segment-4 checkpointing, "
                 "BERT-24 micro-batch 16");
  const std::shared_ptr<const NnModel> model =
      CachedModel("bert:L24:B16", [] { return Bert(24, 16); });
  const TrainGraph graph(model.get());
  const std::vector<TrainOp> conv = graph.ConventionalBackprop();
  const std::vector<TrainOp> rk8 = ReverseFirstK(graph, 8).order;
  const std::pair<const char*, RecomputeTimeline> runs[] = {
      {"conv.keep_all", EstimateBackpropMemoryWithRecompute(*model, conv, {1})},
      {"conv.seg4", EstimateBackpropMemoryWithRecompute(*model, conv, {4})},
      {"rk8.keep_all", EstimateBackpropMemoryWithRecompute(*model, rk8, {1})},
      {"rk8.seg4", EstimateBackpropMemoryWithRecompute(*model, rk8, {4})},
  };
  for (const auto& [key, timeline] : runs) {
    const std::string p = std::string(key) + ".";
    result.Set(p + "peak_mb", timeline.peak() / 1e6);
    result.Set(p + "recompute_gflop", timeline.recompute_flops / 1e9);
  }
  // Reverse first-k with checkpointing peaks below conventional order
  // without it, and the reordering re-computes nothing extra.
  result.Set("rk8_seg4_over_conv_keep_all_peak",
             static_cast<double>(runs[3].second.peak()) /
                 static_cast<double>(runs[0].second.peak()));
  result.Set("rk8_over_conv_recompute_flops",
             static_cast<double>(runs[3].second.recompute_flops) /
                 static_cast<double>(runs[1].second.recompute_flops));
  result.Set("best_segment", BestSegmentForPeak(*model, conv, 12));
  return result;
}

// ---------------------------------------------------------------------------
// Steady-state scenarios: long training runs whose event timelines become
// iteration-periodic, exercising the replay fast path end to end. Their
// goldens pin `replayed == 1` alongside the metrics, so a regression that
// silently disables replay (or one that changes any extrapolated value)
// fails the golden gate.

ScenarioResult SteadySingleGpu(const ScenarioParams& params,
                               const std::shared_ptr<const NnModel>& model) {
  ScenarioResult result;
  const int measured = params.GetInt("measured_iterations", 24);
  result.AddNote(StrFormat("%s on V100, %d measured iterations",
                           model->name.c_str(), measured));
  const TrainGraph graph(model.get());
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();

  SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = xla;
  config.precompiled_issue = true;
  config.measured_iterations = measured;

  ReplayStats conv_stats;
  const TrainMetrics conv = SingleGpuEngine(config).Run(
      *model, ConventionalIteration(graph), nullptr, &conv_stats);
  result.SetMetrics("conv.", conv);
  result.Set("conv.replayed", conv_stats.replayed ? 1 : 0);
  result.Set("conv.simulated_iterations", conv_stats.simulated_iterations);

  const JointScheduleResult sched = MakeOooSchedule(graph, gpu, xla);
  ReplayStats ooo_stats;
  const TrainMetrics ooo = SingleGpuEngine(config).Run(
      *model, sched.schedule, nullptr, &ooo_stats);
  result.SetMetrics("ooo.", ooo);
  result.Set("ooo.replayed", ooo_stats.replayed ? 1 : 0);
  result.Set("ooo.simulated_iterations", ooo_stats.simulated_iterations);
  result.Set("ooo_over_conv", ooo.throughput / conv.throughput);
  return result;
}

ScenarioResult SteadyResnet50(const ScenarioParams& params) {
  return SteadySingleGpu(
      params, CachedModel("resnet:L50:B32", [] { return ResNet(50, 32); }));
}

ScenarioResult SteadyDensenet121(const ScenarioParams& params) {
  return SteadySingleGpu(params,
                         CachedModel("densenet:L121:k24:B32:I32", [] {
                           return DenseNet(121, 24, 32, 32);
                         }));
}

ScenarioResult SteadyPipedreamBert12(const ScenarioParams& params) {
  ScenarioResult result;
  const int measured = params.GetInt("measured_iterations", 16);
  result.AddNote(StrFormat(
      "BERT-12 PipeDream on 4x V100 (Pub-B), %d measured iterations",
      measured));
  const std::shared_ptr<const NnModel> micro = ShardedBert(12, 8);

  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(5);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.measured_iterations = measured;

  ReplayStats stats;
  const PipelineResult pd = PipelineEngine(config).Run(
      *micro, PipelineStrategy::kPipeDream, nullptr, &stats);
  result.SetMetrics("pd.", pd.metrics);
  result.Set("pd.replayed", stats.replayed ? 1 : 0);
  result.Set("pd.simulated_iterations", stats.simulated_iterations);
  result.Set("pd.weight_versions", pd.weight_versions);
  return result;
}

void RegisterSweep(ScenarioRegistry& reg, Scenario scenario) {
  scenario.label = "sweep";
  reg.Register(std::move(scenario));
}

void RegisterSteady(ScenarioRegistry& reg, Scenario scenario) {
  scenario.label = "steady";
  reg.Register(std::move(scenario));
}

}  // namespace

std::shared_ptr<const NnModel> Fig13ShardedBert(int layers, int micro_batch) {
  return ShardedBert(layers, micro_batch);
}

std::shared_ptr<const NnModel> Fig13ShardedGpt3(int micro_batch) {
  return CachedModel(
      StrFormat("sharded-gpt3m:B%d", micro_batch),
      [micro_batch] { return WithShardedHead(Gpt3Medium(micro_batch)); });
}

void RegisterSweepScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();
    RegisterSweep(reg, {"fig13_weak_scaling", "Figure 13a",
                        "weak scaling: BERT-{12,24,48} on 8/16/32 V100, "
                        "GPipe vs PipeDream vs OOO-Pipe2",
                        Fig13WeakScaling});
    RegisterSweep(reg, {"fig13_strong_bert", "Figure 13b",
                        "strong scaling: BERT-24/48 from 8 to 32 GPUs, "
                        "OOO-Pipe2",
                        Fig13StrongBert});
    RegisterSweep(reg, {"fig13_strong_gpt3", "Figure 13b",
                        "strong scaling: GPT-3 Medium on 8-24 GPUs (+4 "
                        "embedding), OOO-Pipe2",
                        Fig13StrongGpt3});
    RegisterSweep(reg, {"ana_megatron", "Section 8.4.2",
                        "Megatron-2 interleaved vs OOO-Pipe2, BERT-48 "
                        "pre-training",
                        AnaMegatron});
    RegisterSweep(reg, {"ana_reverse_k", "Section 8.3",
                        "reverse first-k response curve and concave search, "
                        "ResNet-50 on Pub-A",
                        AnaReverseK});
    RegisterSweep(reg, {"ana_corun", "Section 8.2",
                        "per-region co-run capacity analysis, DenseNet-121",
                        AnaCorun});
    RegisterSweep(reg, {"ana_recompute", "Section 6",
                        "activation checkpointing with reverse first-k, "
                        "BERT-24 (analytic)",
                        AnaRecompute});
    RegisterSweep(reg, {"abl_joint_vs_naive", "Section 4.1",
                        "joint scheduling vs naive sub-stream over XLA, "
                        "DenseNet-121 / MobileNet",
                        AblJointVsNaive});
    RegisterSweep(reg, {"abl_k_search", "Section 5.1",
                        "concave k search vs exhaustive k sweep, ResNet on "
                        "Pub-A",
                        AblKSearch});
    RegisterSweep(reg, {"abl_list_scheduling", "Section 5.1",
                        "reverse first-k vs list scheduling with exact and "
                        "4x-off sync estimates",
                        AblListScheduling});
    RegisterSweep(reg, {"abl_modulo_granularity", "Section 8.4.1",
                        "OOO-Pipe2 modulo group size vs interconnect, "
                        "BERT-24",
                        AblModuloGranularity});
    RegisterSweep(reg, {"abl_hybrid", "Section 6",
                        "DAPPLE / OOO-Pipe2 pipelines replicated into "
                        "data-parallel groups, + reverse first-k",
                        AblHybrid});
    RegisterSteady(reg, {"steady_resnet50", "DESIGN.md §9",
                         "long-run ResNet-50 training under steady-state "
                         "iteration replay",
                         SteadyResnet50});
    RegisterSteady(reg, {"steady_densenet121", "DESIGN.md §9",
                         "long-run DenseNet-121(k24) training under "
                         "steady-state iteration replay",
                         SteadyDensenet121});
    RegisterSteady(reg, {"steady_pipedream_bert12", "DESIGN.md §9",
                         "long-run BERT-12 PipeDream pipeline under "
                         "steady-state iteration replay",
                         SteadyPipedreamBert12});
  });
}

}  // namespace oobp

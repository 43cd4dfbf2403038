#include "src/runner/paper_scenarios.h"

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/memory_model.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/trace/trace.h"

namespace oobp {
namespace {

// DenseNet-121 (growth 32, batch 32, 224x224): the model of Figures 1, 2
// and 8, shared with ana_corun through the model cache.
std::shared_ptr<const NnModel> DenseNet121Fig1() {
  return CachedModel("densenet:L121:k32:B32:I224",
                     [] { return DenseNet(121, 32, 32, 224); });
}

// ---------------------------------------------------------------------------
// Figure 1: kernel issue overhead vs execution time of DenseNet-121's
// forward convolutions, per DenseBlock, under eager TensorFlow on a V100.
// The paper: issue costs up to 4x execution in DenseBlocks 3/4, which hold
// two thirds of the convolutions, so the executor, not the GPU, bounds
// training. Analytic: the cost model alone, no simulated device.

ScenarioResult Fig01KernelIssue(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32 forward ops, eager TensorFlow "
                 "issue on V100");
  const std::shared_ptr<const NnModel> model = DenseNet121Fig1();
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlow());

  struct BlockStats {
    TimeNs exec = 0;
    TimeNs issue = 0;
    int convs = 0;
    double worst_ratio = 0.0;
  };
  std::map<std::string, BlockStats> blocks;
  TimeNs total_exec = 0;
  for (const Layer& l : model->layers) {
    if (!l.block.starts_with("denseblock")) {
      continue;
    }
    const KernelCost kc = cost->Cost(l, TrainOpType::kForward);
    BlockStats& b = blocks[l.block];
    b.exec += kc.duration;
    b.issue += kc.issue_latency;
    ++b.convs;
    b.worst_ratio = std::max(
        b.worst_ratio, static_cast<double>(kc.issue_latency) / kc.duration);
    total_exec += kc.duration;
  }

  double db34_worst = 0.0;
  TimeNs db34_exec = 0;
  int db34_convs = 0, convs = 0;
  for (const auto& [name, b] : blocks) {
    result.Set(name + ".convs", b.convs);
    result.Set(name + ".issue_over_exec",
               static_cast<double>(b.issue) / b.exec);
    result.Set(name + ".worst_issue_over_exec", b.worst_ratio);
    convs += b.convs;
    if (name == "denseblock3" || name == "denseblock4") {
      db34_worst = std::max(db34_worst, b.worst_ratio);
      db34_exec += b.exec;
      db34_convs += b.convs;
    }
  }
  result.Set("db34_worst_issue_over_exec", db34_worst);
  // Once training is issue-bound, a block's share of wall time follows its
  // share of ops, not of pure execution.
  result.Set("db34_conv_share", static_cast<double>(db34_convs) / convs);
  result.Set("db34_exec_share",
             static_cast<double>(db34_exec) / static_cast<double>(total_exec));
  return result;
}

// ---------------------------------------------------------------------------
// Figure 2: one eager-TensorFlow iteration of DenseNet-121 on a V100, split
// into 12 equal windows. Issue overhead is masked where kernels are long
// and exposed where they are short, so the GPU's idle fraction swings
// between windows.

ScenarioResult Fig02Timeline(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32, eager TensorFlow issue on "
                 "V100, one iteration in 12 windows");
  const std::shared_ptr<const NnModel> model = DenseNet121Fig1();
  const TrainGraph graph(model.get());

  SingleGpuConfig config;
  config.gpu = GpuSpec::V100();
  config.profile = SystemProfile::TensorFlow();
  config.precompiled_issue = false;
  config.measured_iterations = 1;

  TraceRecorder trace;
  const TrainMetrics metrics = SingleGpuEngine(config).Run(
      *model, ConventionalIteration(graph), &trace);

  const TimeNs makespan = trace.Makespan();
  constexpr int kWindows = 12;
  double max_idle = 0.0, min_idle = 1.0;
  for (int q = 0; q < kWindows; ++q) {
    const TimeNs begin = makespan * q / kWindows;
    const TimeNs end = makespan * (q + 1) / kWindows;
    const TimeNs busy = trace.BusyTime(/*track=*/0, begin, end);
    const double idle =
        static_cast<double>((end - begin) - busy) / (end - begin);
    result.Set(StrFormat("w%d.idle_fraction", q + 1), idle);
    max_idle = std::max(max_idle, idle);
    min_idle = std::min(min_idle, idle);
  }
  result.Set("iteration_ms", ToMs(metrics.iteration_time));
  result.Set("trace_events", static_cast<double>(trace.events().size()));
  result.Set("peak_idle_fraction", max_idle);
  result.Set("idle_contrast", max_idle / std::max(min_idle, 1e-2));
  return result;
}

// ---------------------------------------------------------------------------
// Figure 4: data-parallel schedules on a uniform toy model — (a) conventional
// wait-free backprop + FIFO comm, (b) prioritized comm, (c) + reordered
// computation (reverse first-k). Reported both under the analytic cost model
// (ms) and in the paper's unit-time mode.

ScenarioResult Fig04DpUnit(const ScenarioParams& params) {
  ScenarioResult result;
  const int k = params.GetInt("k", 3);  // the paper reverses 3 of 5 layers
  const std::shared_ptr<const NnModel> model_ptr =
      CachedModel("ffnn:L5:B512:H8192", [] { return Ffnn(5, 512, 8192); });
  const NnModel& model = *model_ptr;
  const TrainGraph graph(&model);
  result.AddNote(StrFormat("model %s, 8 GPUs, reverse first k=%d",
                           model.name.c_str(), k));

  DataParallelConfig config;
  // A single NVLink node keeps per-layer sync comparable to per-layer
  // gradient compute, matching the figure's unit-time proportions.
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 8;
  config.commit_window_bytes = 96LL << 20;

  auto run_three = [&](const DataParallelConfig& base, const char* suffix,
                       TimeNs unit) {
    // (a) FIFO: Horovod with immediate per-tensor flush (no batching delay).
    DataParallelConfig fifo = base;
    fifo.scheme = CommScheme::kHorovod;
    fifo.fusion_cycle = 1;
    fifo.fusion_buffer_bytes = 1;
    const TrainMetrics a =
        DataParallelEngine(fifo).Run(model, graph.ConventionalBackprop());

    // (b) prioritized communication (BytePS), conventional order.
    DataParallelConfig prio = base;
    prio.scheme = CommScheme::kBytePS;
    const DataParallelEngine byteps(prio);
    const TrainMetrics b = byteps.Run(model, graph.ConventionalBackprop());

    // (c) + reordered computation.
    const TrainMetrics c = byteps.Run(model, ReverseFirstK(graph, k).order);

    if (unit > 0) {
      result.Set(StrFormat("unit_a%s", suffix),
                 static_cast<double>(a.iteration_time) / unit);
      result.Set(StrFormat("unit_b%s", suffix),
                 static_cast<double>(b.iteration_time) / unit);
      result.Set(StrFormat("unit_c%s", suffix),
                 static_cast<double>(c.iteration_time) / unit);
    } else {
      result.SetMetrics("a.", a);
      result.SetMetrics("b.", b);
      result.SetMetrics("c.", c);
    }
    result.Set(StrFormat("speedup_c_over_a%s", suffix),
               c.throughput / a.throughput);
    result.Set(StrFormat("speedup_c_over_b%s", suffix),
               c.throughput / b.throughput);
  };

  run_three(config, "", 0);

  // Unit-time toy: every op is one unit, per-layer sync `sync_units` units,
  // and the commit window admits a single message so priorities can act.
  DataParallelConfig unit_config = config;
  unit_config.unit_time = Ms(1);
  // Three sync units per layer congest the channel enough that FIFO ordering
  // hurts (a) and the reordered schedule (c) wins: 22 / 21 / 20 units, the
  // paper's strict (a) > (b) > (c) ordering.
  unit_config.unit_sync_units = params.GetDouble("unit_sync_units", 3.0);
  unit_config.commit_window_bytes = 1 << 20;
  run_three(unit_config, "_unit", unit_config.unit_time);
  return result;
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: the 8-layer / 2-GPU toy — cross-layer model parallelism
// (M = 1, Figure 5) and pipeline parallelism with two micro-batches
// (Figure 6). (a) conventional / GPipe, (b) + gradient fast-forwarding,
// (c) + modulo allocation. Unit-time mode pins the paper's exact makespans
// (Figure 5: 23 / 19 / 16 units).

ScenarioResult PipeToy(int micro_batches, int batch) {
  ScenarioResult result;
  const std::shared_ptr<const NnModel> model_ptr =
      CachedModel(StrFormat("ffnn:L8:B%d:H4096", batch),
                  [batch] { return Ffnn(8, batch, 4096); });
  const NnModel& model = *model_ptr;
  result.AddNote(StrFormat("model %s, 2 GPUs, %d micro-batch(es)",
                           model.name.c_str(), micro_batches));

  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 2;
  config.num_micro_batches = micro_batches;
  config.use_link_override = true;
  config.link_override = {"ideal", 10000.0, 0};

  const PipelineEngine engine(config);
  const PipelineResult a = engine.Run(model, PipelineStrategy::kGPipe);
  const PipelineResult b = engine.Run(model, PipelineStrategy::kOooPipe1);
  const PipelineResult c = engine.Run(model, PipelineStrategy::kOooPipe2);
  result.SetMetrics("a.", a.metrics);
  result.SetMetrics("b.", b.metrics);
  result.SetMetrics("c.", c.metrics);
  result.Set("speedup_b", static_cast<double>(a.metrics.iteration_time) /
                              static_cast<double>(b.metrics.iteration_time));
  result.Set("speedup_c", static_cast<double>(a.metrics.iteration_time) /
                              static_cast<double>(c.metrics.iteration_time));

  // Unit-time mode: op = 1 unit, near-infinite link so the unit counts are
  // exactly the paper's figure makespans.
  PipelineConfig unit_config = config;
  unit_config.unit_time = Ms(1);
  unit_config.link_override = {"unit-ideal", 1e6, 0};
  const PipelineEngine unit_engine(unit_config);
  const double unit = static_cast<double>(unit_config.unit_time);
  const PipelineResult ua = unit_engine.Run(model, PipelineStrategy::kGPipe);
  const PipelineResult ub = unit_engine.Run(model, PipelineStrategy::kOooPipe1);
  const PipelineResult uc = unit_engine.Run(model, PipelineStrategy::kOooPipe2);
  result.Set("unit_a", static_cast<double>(ua.metrics.iteration_time) / unit);
  result.Set("unit_b", static_cast<double>(ub.metrics.iteration_time) / unit);
  result.Set("unit_c", static_cast<double>(uc.metrics.iteration_time) / unit);
  return result;
}

ScenarioResult Fig05MpUnit(const ScenarioParams&) { return PipeToy(1, 256); }
ScenarioResult Fig06PipeUnit(const ScenarioParams&) { return PipeToy(2, 128); }

// ---------------------------------------------------------------------------
// Figure 7: single-GPU training throughput vs XLA on a V100 — XLA, XLA+Opt1
// (pre-compiled issue), OOO-XLA (= +Opt2 multi-stream ooo), and Nimble.
// Split per model family so the runner can parallelize.

struct SingleGpuRow {
  double xla = 0, opt1 = 0, ooo = 0;
  std::optional<double> nimble;
  bool ooo_oom = false;
  TrainMetrics ooo_metrics;
};

SingleGpuRow RunSingleGpuConfig(const NnModel& model) {
  const TrainGraph graph(&model);
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();
  SingleGpuRow r;

  const IterationSchedule conventional = ConventionalIteration(graph);
  const TrainMetrics m_xla =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/false})
          .Run(model, conventional);
  const TrainMetrics m_opt1 =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
          .Run(model, conventional);

  const JointScheduleResult sched = MakeOooSchedule(graph, gpu, xla);
  const TrainMetrics m_ooo =
      SingleGpuEngine({gpu, xla, /*precompiled_issue=*/true})
          .Run(model, sched.schedule);

  const TrainMetrics m_nimble =
      SingleGpuEngine({gpu, SystemProfile::PyTorchNimble(), true})
          .Run(model, conventional);

  r.xla = m_xla.oom ? 0 : m_xla.throughput;
  r.opt1 = m_opt1.oom ? 0 : m_opt1.throughput;
  r.ooo = m_ooo.oom ? 0 : m_ooo.throughput;
  r.ooo_oom = m_ooo.oom;
  r.ooo_metrics = m_ooo;
  if (!m_nimble.oom) {
    r.nimble = m_nimble.throughput;
  }
  return r;
}

ScenarioResult Fig07Model(
    const std::function<std::shared_ptr<const NnModel>(int)>& make,
    const std::string& label) {
  ScenarioResult result;
  result.AddNote(label + " on V100, batch 32 and 64");
  double max_gain = 0.0;
  for (int batch : {32, 64}) {
    const SingleGpuRow r = RunSingleGpuConfig(*make(batch));
    const std::string p = StrFormat("b%d.", batch);
    result.Set(p + "xla_throughput", r.xla);
    result.Set(p + "opt1_over_xla", r.xla > 0 ? r.opt1 / r.xla : 0);
    result.Set(p + "ooo_over_xla", r.xla > 0 ? r.ooo / r.xla : 0);
    result.Set(p + "nimble_over_xla",
               r.nimble.has_value() && r.xla > 0 ? *r.nimble / r.xla : 0);
    result.Set(p + "nimble_oom", r.nimble.has_value() ? 0 : 1);
    result.SetMetrics(p + "ooo.", r.ooo_metrics);
    max_gain = std::max(max_gain, r.xla > 0 ? r.ooo / r.xla : 0);
  }
  result.Set("max_ooo_over_xla", max_gain);
  return result;
}

// The maximum-speedup configurations the paper calls out separately, plus
// Nimble's memory behaviour at batch 64.
ScenarioResult Fig07MaxGain(const ScenarioParams&) {
  ScenarioResult result;
  const SingleGpuRow k12 =
      RunSingleGpuConfig(*CachedModel("densenet:L121:k12:B32:I32", [] {
        return DenseNet(121, 12, 32, 32);
      }));
  const SingleGpuRow a025 =
      RunSingleGpuConfig(*CachedModel("mobilenet:a0.25:B32:I224", [] {
        return MobileNetV3Large(0.25, 32);
      }));
  const SingleGpuRow nimble64 = RunSingleGpuConfig(
      *CachedModel("resnet:L101:B64", [] { return ResNet(101, 64); }));
  result.Set("densenet121_k12_b32_gain",
             k12.xla > 0 ? k12.ooo / k12.xla : 0);
  result.Set("mobilenet_a025_b32_gain",
             a025.xla > 0 ? a025.ooo / a025.xla : 0);
  result.Set("nimble_resnet101_b64_oom", nimble64.nimble.has_value() ? 0 : 1);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 8: Algorithm 1's region schedule for DenseNet-121. Unconstrained,
// it delays weight gradients past the backward pass into the next
// iteration's forward regions (DenseBlock-4's into a forward region, as in
// the paper's figure); under the paper's 1.1x memory cap it pre-schedules
// leading backward regions until the peak fits. Analytic: the co-run
// profiler and the memory model, no simulated device.

ScenarioResult Fig08Regions(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 32 on V100 (XLA), unconstrained "
                 "and 1.1x memory cap");
  const std::shared_ptr<const NnModel> model = DenseNet121Fig1();
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));
  const MemoryPeak conv_mem =
      EstimateBackpropPeak(*model, ConventionalIteration(graph));
  result.Set("regions", profiler.num_regions());
  result.Set("conventional_peak_mb", conv_mem.peak / 1e6);

  auto summarize = [&](const std::string& prefix,
                       const JointScheduleResult& sched) {
    int in_forward = 0, db4_in_forward = 0;
    for (size_t i = 0; i < sched.assigned_ops.size(); ++i) {
      if (profiler.region(sched.assigned_region[i]).kind ==
          Region::Kind::kForward) {
        ++in_forward;
        db4_in_forward +=
            model->layers[sched.assigned_ops[i].layer].block == "denseblock4";
      }
    }
    result.Set(prefix + "pre_scheduled_regions", sched.pre_scheduled_regions);
    result.Set(prefix + "dw_in_forward_regions", in_forward);
    result.Set(prefix + "denseblock4_dw_in_forward", db4_in_forward);
    result.Set(prefix + "peak_mb", sched.peak_memory / 1e6);
    result.Set(prefix + "peak_over_conventional",
               static_cast<double>(sched.peak_memory) / conv_mem.peak);
  };
  summarize("unconstrained.", MultiRegionJointSchedule(graph, profiler, {}));
  JointScheduleOptions capped;
  capped.memory_cap_bytes = static_cast<int64_t>(1.1 * conv_mem.peak);
  summarize("capped.", MultiRegionJointSchedule(graph, profiler, capped));
  return result;
}

// ---------------------------------------------------------------------------
// Figure 9: memory through DenseNet-121's backprop (batch 64), conventional
// vs the Figure 8 schedule, which runs DenseBlock-4's weight gradients after
// the rest of backprop. The paper: ooo holds ~200 MB more late in backprop
// but its peak, at the start of backprop, barely moves. Analytic: the
// memory model, no simulated device.

ScenarioResult Fig09Memory(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("DenseNet-121(k32) batch 64 on V100 (XLA), DenseBlock-4 "
                 "dW delayed past backprop");
  const std::shared_ptr<const NnModel> model = CachedModel(
      "densenet:L121:k32:B64:I224", [] { return DenseNet(121, 32, 64, 224); });
  const TrainGraph graph(model.get());
  const std::shared_ptr<const CostModel> cost =
      CachedCostModel(GpuSpec::V100(), SystemProfile::TensorFlowXla());
  const CorunProfiler profiler(graph, *cost, BuildRegions(graph));

  const IterationSchedule conventional = ConventionalIteration(graph);
  const MemoryTimeline conv =
      EstimateBackpropMemory(*model, conventional.MergedOrder());

  IterationSchedule fig8;
  std::vector<ScheduledOp> delayed;
  for (const TrainOp& op : graph.ConventionalBackprop()) {
    if (op.type == TrainOpType::kWeightGrad &&
        model->layers[op.layer].block == "denseblock4") {
      delayed.push_back({op, kSubStream, -1});
    } else {
      fig8.ops.push_back({op, kMainStream, -1});
    }
  }
  fig8.ops.insert(fig8.ops.end(), delayed.begin(), delayed.end());
  const MemoryTimeline ooo = EstimateBackpropMemory(*model, fig8.MergedOrder());

  // Excess of ooo over conventional at each output-gradient op, the
  // figure's x-axis. Both orders hold the same dO ops in the same order.
  const std::vector<TrainOp> conv_order = conventional.MergedOrder();
  const std::vector<TrainOp> ooo_order = fig8.MergedOrder();
  std::vector<int64_t> conv_at_dgrad;
  for (size_t i = 0; i < conv_order.size(); ++i) {
    if (conv_order[i].type == TrainOpType::kOutputGrad) {
      conv_at_dgrad.push_back(conv.usage_after[i]);
    }
  }
  int64_t max_excess = 0;
  size_t sample = 0;
  for (size_t i = 0; i < ooo_order.size(); ++i) {
    if (ooo_order[i].type == TrainOpType::kOutputGrad) {
      max_excess =
          std::max(max_excess, ooo.usage_after[i] - conv_at_dgrad[sample++]);
    }
  }

  JointScheduleOptions opts;
  opts.memory_cap_bytes = static_cast<int64_t>(1.1 * conv.peak);
  const JointScheduleResult joint =
      MultiRegionJointSchedule(graph, profiler, opts);

  result.Set("conventional_peak_mb", conv.peak_total() / 1e6);
  result.Set("ooo_peak_mb", (ooo.peak + conv.base) / 1e6);
  // Against the activation peak, which the 1.1x cap bounds, and against
  // the whole footprint.
  result.Set("peak_increase", static_cast<double>(ooo.peak - conv.peak) /
                                  static_cast<double>(conv.peak));
  result.Set("peak_increase_of_total",
             static_cast<double>(ooo.peak - conv.peak) /
                 static_cast<double>(conv.peak_total()));
  result.Set("max_excess_mb", max_excess / 1e6);
  result.Set("joint.peak_mb", (joint.peak_memory + conv.base) / 1e6);
  result.Set("joint.pre_scheduled_regions", joint.pre_scheduled_regions);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 10: data-parallel scaling — Horovod / BytePS / OOO-BytePS (reverse
// first-k with concave k search) on the three clusters of Table 2. Split per
// cluster.

ScenarioResult Fig10Cluster(const ClusterSpec& cluster,
                            const std::vector<int>& gpu_counts, int batch50,
                            int batch101) {
  ScenarioResult result;
  result.AddNote(StrFormat("cluster %s, ResNet-50 batch %d / ResNet-101 "
                           "batch %d per GPU",
                           cluster.name.c_str(), batch50, batch101));
  double min_gain_16plus = 0.0, max_gain_16plus = 0.0;
  bool any_16plus = false;
  for (const int depth : {50, 101}) {
    const int batch = depth == 50 ? batch50 : batch101;
    const std::shared_ptr<const NnModel> model_ptr =
        CachedModel(StrFormat("resnet:L%d:B%d", depth, batch),
                    [depth, batch] { return ResNet(depth, batch); });
    const NnModel& model = *model_ptr;
    const TrainGraph graph(&model);
    for (int gpus : gpu_counts) {
      DataParallelConfig config;
      config.cluster = cluster;
      config.num_gpus = gpus;

      config.scheme = CommScheme::kHorovod;
      const double hvd = DataParallelEngine(config)
                             .Run(model, graph.ConventionalBackprop())
                             .throughput;
      config.scheme = CommScheme::kBytePS;
      const DataParallelEngine byteps(config);
      const double bps =
          byteps.Run(model, graph.ConventionalBackprop()).throughput;
      const KSearchResult search =
          SearchBestK(model.num_layers(), [&](int k) {
            return byteps.Run(model, ReverseFirstK(graph, k).order).throughput;
          });
      const double ooo = search.best_throughput;
      const double gain = bps > 0 ? ooo / bps : 0;

      const std::string p = StrFormat("r%d.g%d.", depth, gpus);
      result.Set(p + "horovod_throughput", hvd);
      result.Set(p + "byteps_throughput", bps);
      result.Set(p + "ooo_throughput", ooo);
      result.Set(p + "best_k", search.best_k);
      result.Set(p + "gain", gain);
      if (gpus >= 16) {
        min_gain_16plus =
            any_16plus ? std::min(min_gain_16plus, gain) : gain;
        max_gain_16plus =
            any_16plus ? std::max(max_gain_16plus, gain) : gain;
        any_16plus = true;
      }
    }
  }
  if (any_16plus) {
    result.Set("min_gain_16plus", min_gain_16plus);
    result.Set("max_gain_16plus", max_gain_16plus);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Figure 11(a): pipeline-parallel fine-tuning on four NVLink V100s,
// normalized to one GPU: the RNN (16 cells, batch 1024, no micro-batches),
// BERT-24 (batch 96) and a 16-layer FFNN (batch 256). Systems: cross-layer
// model parallelism, GPipe, OOO-Pipe1, OOO-Pipe2 and PipeDream (reference
// only: weight stashing changes semantics). Paper: OOO-Pipe2 is 1.47x model
// parallelism on the RNN, 1.59x GPipe on BERT (3.2x one GPU) and 1.5x GPipe
// on the FFNN. The cost model runs an RNN cell as one kernel, so the RNN's
// micro-batch interference (GPipe slower than model parallelism) is not
// modelled, and its claim is taken against model parallelism.

ScenarioResult Fig11aFinetune(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("RNN-16cell b1024 (no micro-batches), BERT-24 b96 and "
                 "FFNN-16 b256 (4 micro-batches) on 4x V100 (NVLink)");
  struct Workload {
    const char* key;
    std::function<std::shared_ptr<const NnModel>(int)> make;  // arg: batch
    int global_batch;
    int micro_batches;
  };
  const Workload workloads[] = {
      {"rnn",
       [](int b) {
         return CachedModel(StrFormat("rnn:C16:B%d", b),
                            [b] { return RnnModel(16, b); });
       },
       1024, 1},
      {"bert",
       [](int b) {
         return CachedModel(StrFormat("bert:L24:B%d", b),
                            [b] { return Bert(24, b); });
       },
       96, 4},
      {"ffnn",
       [](int b) {
         return CachedModel(StrFormat("ffnn:L16:B%d:H4096", b),
                            [b] { return Ffnn(16, b, 4096); });
       },
       256, 4},
  };
  for (const Workload& w : workloads) {
    PipelineConfig config;
    config.cluster = ClusterSpec::PubB(1);
    config.num_gpus = 4;
    config.num_micro_batches = 1;
    const std::shared_ptr<const NnModel> full = w.make(w.global_batch);
    PipelineConfig one_gpu = config;
    one_gpu.num_gpus = 1;
    const double single = PipelineEngine(one_gpu)
                              .Run(*full, PipelineStrategy::kGPipe)
                              .metrics.throughput;
    // Cross-layer model parallelism: the whole batch, no micro-batches.
    const double mp = PipelineEngine(config)
                          .Run(*full, PipelineStrategy::kGPipe)
                          .metrics.throughput;
    config.num_micro_batches = w.micro_batches;
    const std::shared_ptr<const NnModel> micro =
        w.make(w.global_batch / w.micro_batches);
    const PipelineEngine engine(config);
    auto run = [&](PipelineStrategy s) {
      return engine.Run(*micro, s).metrics.throughput;
    };
    const double gpipe = run(PipelineStrategy::kGPipe);
    const double pipe2 = run(PipelineStrategy::kOooPipe2);

    const std::string p = std::string(w.key) + ".";
    result.Set(p + "single_throughput", single);
    result.Set(p + "mp_over_single", mp / single);
    result.Set(p + "gpipe_over_single", gpipe / single);
    result.Set(p + "pipe1_over_single",
               run(PipelineStrategy::kOooPipe1) / single);
    result.Set(p + "pipe2_over_single", pipe2 / single);
    result.Set(p + "pipedream_over_single",
               run(PipelineStrategy::kPipeDream) / single);
    result.Set(p + "pipe2_over_mp", pipe2 / mp);
    result.Set(p + "pipe2_over_gpipe", pipe2 / gpipe);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Figure 11(b): BERT-24 (batch 96, 4 micro-batches) on four V100s over
// NVLink, PCIe 3.0 and 10 GbE. Modulo allocation moves more activations
// between GPUs, so on Ethernet the paper groups two transformers per modulo
// slot. Paper: OOO-Pipe2 over GPipe 1.70 / 1.58 / 1.48, comm/comp 0.05 /
// 0.16 / 1.8.

ScenarioResult Fig11bInterconnect(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("BERT-24 b96, 4 micro-batches, 4x V100; modulo group 2 on "
                 "10GbE");
  const std::shared_ptr<const NnModel> micro =
      CachedModel("bert:L24:B24", [] { return Bert(24, 24); });
  auto engine_for = [](const LinkSpec& link, int group) {
    PipelineConfig config;
    config.cluster = ClusterSpec::PubB(1);
    config.num_gpus = 4;
    config.num_micro_batches = 4;
    config.use_link_override = true;
    config.link_override = link;
    config.modulo_group_size = group;
    return PipelineEngine(config);
  };
  struct Net {
    const char* key;
    LinkSpec link;
    int group;  // modulo granularity
  };
  const Net nets[] = {{"nvlink", LinkSpec::NvLink(), 1},
                      {"pcie", LinkSpec::PcIe3(), 1},
                      {"eth10g", LinkSpec::Eth10G(), 2}};
  for (const Net& net : nets) {
    const PipelineEngine engine = engine_for(net.link, net.group);
    const double gpipe =
        engine.Run(*micro, PipelineStrategy::kGPipe).metrics.throughput;
    const double pd =
        engine.Run(*micro, PipelineStrategy::kPipeDream).metrics.throughput;
    const PipelineResult ooo = engine.Run(*micro, PipelineStrategy::kOooPipe2);
    const std::string p = std::string(net.key) + ".";
    result.Set(p + "gpipe_throughput", gpipe);
    result.Set(p + "pipedream_throughput", pd);
    result.Set(p + "ooo_throughput", ooo.metrics.throughput);
    result.Set(p + "comm_comp", ooo.comm_comp_ratio);
    result.Set(p + "gain", ooo.metrics.throughput / gpipe);
  }
  // Per-transformer modulo allocation on Ethernet, against the grouped run.
  const double fine = engine_for(LinkSpec::Eth10G(), 1)
                          .Run(*micro, PipelineStrategy::kOooPipe2)
                          .metrics.throughput;
  result.Set("eth10g.group2_over_group1",
             result.Get("eth10g.ooo_throughput") / fine);
  return result;
}

// ---------------------------------------------------------------------------
// Figure 12: pipeline timelines of an FFNN (batch 64) on 4 GPUs with 4
// micro-batches and an ideal link: GPipe, OOO-Pipe1 (gradient
// fast-forwarding) and OOO-Pipe2 (+ modulo allocation). The figure draws 8
// layers; the paper's analysis uses 16 and finds 1.22x (fast-forwarding)
// and 1.62x (+ modulo allocation) over GPipe in the ideal case.

ScenarioResult Fig12FfnnTimeline(const ScenarioParams&) {
  ScenarioResult result;
  result.AddNote("FFNN-8 (the figure) and FFNN-16 (the analysis), batch 64, "
                 "4 GPUs, 4 micro-batches, ideal link");
  PipelineConfig config;
  config.cluster = ClusterSpec::PubB(1);
  config.num_gpus = 4;
  config.num_micro_batches = 4;
  config.use_link_override = true;
  config.link_override = {"ideal", 10000.0, 0};
  const PipelineEngine engine(config);
  const std::pair<const char*, PipelineStrategy> strategies[] = {
      {"gpipe", PipelineStrategy::kGPipe},
      {"pipe1", PipelineStrategy::kOooPipe1},
      {"pipe2", PipelineStrategy::kOooPipe2}};
  for (const int layers : {8, 16}) {
    const std::shared_ptr<const NnModel> model =
        CachedModel(StrFormat("ffnn:L%d:B64:H4096", layers),
                    [layers] { return Ffnn(layers, 64, 4096); });
    for (const auto& [name, strategy] : strategies) {
      const TrainMetrics m = engine.Run(*model, strategy).metrics;
      const std::string p = StrFormat("l%d.%s.", layers, name);
      result.Set(p + "iteration_ms", ToMs(m.iteration_time));
      result.Set(p + "throughput", m.throughput);
    }
  }
  const double gpipe = result.Get("l16.gpipe.throughput");
  result.Set("pipe1_over_gpipe", result.Get("l16.pipe1.throughput") / gpipe);
  result.Set("pipe2_over_gpipe", result.Get("l16.pipe2.throughput") / gpipe);
  return result;
}

}  // namespace

void RegisterPaperScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();
    reg.Register({"fig01_kernel_issue", "Figure 1",
                  "kernel issue overhead vs execution per DenseBlock, "
                  "DenseNet-121 (analytic)",
                  Fig01KernelIssue});
    reg.Register({"fig02_timeline", "Figure 2",
                  "GPU idle fraction across one eager DenseNet-121 "
                  "iteration (issue masking)",
                  Fig02Timeline});
    reg.Register(
        {"fig04_dp_unit", "Figure 4",
         "data-parallel schedules on a uniform toy model (+ unit-time mode)",
         Fig04DpUnit});
    reg.Register({"fig05_mp_unit", "Figure 5",
                  "cross-layer model parallelism, 8 layers / 2 GPUs "
                  "(23/19/16 unit times)",
                  Fig05MpUnit});
    reg.Register({"fig06_pipe_unit", "Figure 6",
                  "pipeline parallelism with 2 micro-batches (+ unit-time "
                  "mode)",
                  Fig06PipeUnit});

    struct Fig07Entry {
      const char* name;
      const char* label;
      std::shared_ptr<const NnModel> (*make)(int);
    };
    // Cache keys follow the sweep/steady conventions so a batch-32 fig07
    // model and its steady_* twin share one zoo entry.
    const std::vector<Fig07Entry> fig07 = {
        {"fig07_densenet121", "DenseNet-121(k24)",
         [](int b) {
           return CachedModel(StrFormat("densenet:L121:k24:B%d:I32", b),
                              [b] { return DenseNet(121, 24, b, 32); });
         }},
        {"fig07_densenet169", "DenseNet-169(k32)",
         [](int b) {
           return CachedModel(StrFormat("densenet:L169:k32:B%d:I32", b),
                              [b] { return DenseNet(169, 32, b, 32); });
         }},
        {"fig07_mobilenet", "MobileNetV3(a.75)",
         [](int b) {
           return CachedModel(StrFormat("mobilenet:a0.75:B%d:I224", b),
                              [b] { return MobileNetV3Large(0.75, b, 224); });
         }},
        {"fig07_resnet50", "ResNet-50",
         [](int b) {
           return CachedModel(StrFormat("resnet:L50:B%d", b),
                              [b] { return ResNet(50, b, 224); });
         }},
        {"fig07_resnet101", "ResNet-101",
         [](int b) {
           return CachedModel(StrFormat("resnet:L101:B%d", b),
                              [b] { return ResNet(101, b, 224); });
         }},
    };
    for (const Fig07Entry& e : fig07) {
      const std::string label = e.label;
      auto make = e.make;
      reg.Register({e.name, "Figure 7",
                    StrFormat("single-GPU throughput vs XLA: %s", e.label),
                    [make, label](const ScenarioParams&) {
                      return Fig07Model(make, label);
                    }});
    }
    reg.Register({"fig07_max_gain", "Figure 7",
                  "maximum-speedup configs (DenseNet k=12, MobileNet a=0.25) "
                  "and Nimble OOM",
                  Fig07MaxGain});
    reg.Register({"fig08_regions", "Figure 8",
                  "DenseNet-121 region schedule, unconstrained and under the "
                  "1.1x memory cap (analytic)",
                  Fig08Regions});
    reg.Register({"fig09_memory", "Figure 9",
                  "backprop memory, conventional vs DenseBlock-4 dW delayed, "
                  "DenseNet-121 (analytic)",
                  Fig09Memory});

    reg.Register({"fig10_priva", "Figure 10",
                  "data-parallel scaling on Priv-A (8x Titan XP, PCIe+10GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PrivA(), {1, 2, 4, 8}, 64,
                                        64);
                  }});
    reg.Register({"fig10_privb", "Figure 10",
                  "data-parallel scaling on Priv-B (20x P100, PCIe+20GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PrivB(), {1, 4, 8, 16, 20},
                                        64, 64);
                  }});
    reg.Register({"fig10_puba", "Figure 10",
                  "data-parallel scaling on Pub-A (48x V100, NVLink+10GbE)",
                  [](const ScenarioParams&) {
                    return Fig10Cluster(ClusterSpec::PubA(),
                                        {1, 4, 8, 16, 32, 48}, 128, 96);
                  }});
    reg.Register({"fig11a_finetune", "Figure 11a",
                  "pipeline fine-tuning of RNN / BERT-24 / FFNN on 4x V100 "
                  "(NVLink)",
                  Fig11aFinetune});
    reg.Register({"fig11b_interconnect", "Figure 11b",
                  "BERT-24 OOO-Pipe2 vs GPipe over NVLink / PCIe / 10GbE",
                  Fig11bInterconnect});
    reg.Register({"fig12_ffnn_timeline", "Figure 12",
                  "FFNN pipeline: GPipe vs fast-forwarding vs + modulo "
                  "allocation",
                  Fig12FfnnTimeline});
  });
}

}  // namespace oobp

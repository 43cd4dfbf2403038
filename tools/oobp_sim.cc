// oobp_sim — command-line driver for the out-of-order backprop simulator.
//
// Runs any of the training modes on any zoo model and prints throughput,
// utilization and memory; optionally exports a Chrome trace.
//
//   oobp_sim single   --model=densenet121 --batch=32 [--image=224]
//                     [--system=xla|ooo|nimble] [--gpu=v100|p100|titanxp]
//   oobp_sim dp       --model=resnet50 --batch=128 --gpus=16
//                     [--scheme=byteps|horovod] [--k=-1 (search)|0..L]
//                     [--cluster=puba|priva|privb]
//   oobp_sim pipeline --model=bert24 --batch=96 --gpus=4 --micro=4
//                     [--strategy=gpipe|dapple|pipedream|megatron|ooo1|ooo2]
//   oobp_sim hybrid   --model=bert24 --gpus=8 --replicas=2 [--k=0]
//   oobp_sim replay   --model=densenet121 --schedule=<file>
//   oobp_sim search   --model=densenet121 --batch=32 [--gpu=v100|p100|titanxp]
//                     [--beam=N] [--seed=N] [--budget=N (400)] [--threads=N]
//                     [--export-schedule=<file>]
//                     (search-based scheduler baseline, see src/search;
//                     prints the heuristic-vs-searched optimality gap and
//                     machine-verifies every schedule with
//                     CheckIterationSchedule. --threads runs the trajectory
//                     portfolio on a worker pool, byte-identical for any N;
//                     any other flag is an error)
//   oobp_sim bench    [--list] [--filter=<glob>] [--jobs=N] [--out=<dir>]
//                     [--golden[=<dir>]] [--perf] [--check[=<baseline>]]
//                     [--param k=v]  (see src/runner; --check gates perf
//                     event counts against bench/perf_baseline.json)
//   oobp_sim fuzz     [--seeds=N] [--base-seed=N] [--jobs=N] [--checks=<glob>]
//                     [--no-serve] [--verbose]
//                     (seeded differential fuzzer, see src/validate; --jobs=0
//                     uses all cores, report is byte-identical to --jobs=1)
//
// Common flags: --trace=<path.json> exports the execution timeline;
// `single --system=ooo --export-schedule=<file>` saves the computed
// schedule in the artifact text format for later replay. An integer flag
// whose value is not one whole integer is a usage error (exit 2).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

#include "src/common/str_util.h"
#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule_io.h"
#include "src/nn/model_zoo.h"
#include "src/runner/runner.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/hybrid_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/search/evaluator.h"
#include "src/search/search.h"
#include "src/validate/fuzzer.h"
#include "src/validate/schedule_checker.h"

namespace oobp {
namespace {

// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        continue;
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  // Exits 2, naming the flag, unless the value is one whole integer.
  int GetInt(const std::string& key, int def) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return def;
    }
    int value = 0;
    if (!ParseWhole(it->second, &value)) {
      std::fprintf(stderr, "--%s needs an integer, got '%s'\n", key.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
    return value;
  }
  // First given flag not in `known`, or "" when every flag is known.
  std::string FirstUnknown(std::initializer_list<std::string_view> known)
      const {
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        return key;
      }
    }
    return "";
  }

 private:
  std::map<std::string, std::string> values_;
};

NnModel MakeModel(const std::string& name, int batch, int image) {
  if (name == "resnet50") {
    return ResNet(50, batch, image);
  }
  if (name == "resnet101") {
    return ResNet(101, batch, image);
  }
  if (name == "resnet152") {
    return ResNet(152, batch, image);
  }
  if (name == "densenet121") {
    return DenseNet(121, 32, batch, image);
  }
  if (name == "densenet121-k12") {
    return DenseNet(121, 12, batch, image);
  }
  if (name == "densenet169") {
    return DenseNet(169, 32, batch, image);
  }
  if (name == "mobilenet") {
    return MobileNetV3Large(1.0, batch, image);
  }
  if (name == "mobilenet-a025") {
    return MobileNetV3Large(0.25, batch, image);
  }
  if (name == "bert12") {
    return Bert(12, batch);
  }
  if (name == "bert24") {
    return Bert(24, batch);
  }
  if (name == "bert48") {
    return Bert(48, batch);
  }
  if (name == "gpt3") {
    return Gpt3Medium(batch);
  }
  if (name == "rnn") {
    return RnnModel(16, batch);
  }
  if (name == "ffnn") {
    return Ffnn(16, batch);
  }
  std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
  std::exit(2);
}

GpuSpec MakeGpu(const std::string& name) {
  if (name == "p100") {
    return GpuSpec::P100();
  }
  if (name == "titanxp") {
    return GpuSpec::TitanXp();
  }
  return GpuSpec::V100();
}

ClusterSpec MakeCluster(const std::string& name) {
  if (name == "priva") {
    return ClusterSpec::PrivA();
  }
  if (name == "privb") {
    return ClusterSpec::PrivB();
  }
  if (name == "pubb") {
    return ClusterSpec::PubB();
  }
  return ClusterSpec::PubA();
}

void PrintMetrics(const TrainMetrics& m) {
  std::printf("throughput:    %.1f samples/s\n", m.throughput);
  std::printf("iteration:     %.2f ms\n", ToMs(m.iteration_time));
  std::printf("utilization:   %.1f%%\n", 100.0 * m.gpu_utilization);
  std::printf("peak memory:   %.0f MB%s\n", m.peak_memory_bytes / 1e6,
              m.oom ? "  ** OUT OF MEMORY **" : "");
  if (m.comm_comp_ratio > 0) {
    std::printf("comm/compute:  %.2f\n", m.comm_comp_ratio);
  }
}

void MaybeWriteTrace(const TraceRecorder& trace, const Flags& flags) {
  const std::string path = flags.Get("trace", "");
  if (path.empty()) {
    return;
  }
  std::map<int, std::string> tracks;
  for (const TraceEvent& ev : trace.events()) {
    if (tracks.find(ev.track) == tracks.end()) {
      tracks[ev.track] = "track " + std::to_string(ev.track);
    }
  }
  tracks[0] = "main stream / GPU0";
  if (trace.WriteChromeJson(path, tracks)) {
    std::printf("trace written to %s\n", path.c_str());
  }
}

int RunSingle(const Flags& flags) {
  const NnModel model = MakeModel(flags.Get("model", "densenet121"),
                                  flags.GetInt("batch", 32),
                                  flags.GetInt("image", 224));
  const TrainGraph graph(&model);
  const GpuSpec gpu = MakeGpu(flags.Get("gpu", "v100"));
  const std::string system = flags.Get("system", "ooo");

  SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = system == "nimble" ? SystemProfile::PyTorchNimble()
                                      : SystemProfile::TensorFlowXla();
  config.precompiled_issue = system != "xla";

  TraceRecorder trace;
  TrainMetrics metrics;
  if (system == "ooo") {
    const JointScheduleResult sched = MakeOooSchedule(graph, gpu, config.profile);
    const std::string export_path = flags.Get("export-schedule", "");
    if (!export_path.empty() &&
        WriteScheduleFile(export_path, sched.schedule, model.name,
                          model.num_layers())) {
      std::printf("schedule written to %s\n", export_path.c_str());
    }
    metrics = SingleGpuEngine(config).Run(model, sched.schedule, &trace);
  } else {
    metrics =
        SingleGpuEngine(config).Run(model, ConventionalIteration(graph), &trace);
  }
  std::printf("single-GPU %s on %s, %s\n", model.name.c_str(),
              gpu.name.c_str(), system.c_str());
  PrintMetrics(metrics);
  MaybeWriteTrace(trace, flags);
  return 0;
}

int RunReplay(const Flags& flags) {
  const NnModel model = MakeModel(flags.Get("model", "densenet121"),
                                  flags.GetInt("batch", 32),
                                  flags.GetInt("image", 224));
  const auto sched =
      ReadScheduleFile(flags.Get("schedule", ""), model.num_layers());
  if (!sched.has_value()) {
    std::fprintf(stderr, "cannot read --schedule file (or layer mismatch)\n");
    return 2;
  }
  SingleGpuConfig config;
  config.gpu = MakeGpu(flags.Get("gpu", "v100"));
  config.profile = SystemProfile::TensorFlowXla();
  config.precompiled_issue = true;
  TraceRecorder trace;
  const TrainMetrics metrics = SingleGpuEngine(config).Run(model, *sched, &trace);
  std::printf("replayed schedule for %s\n", model.name.c_str());
  PrintMetrics(metrics);
  MaybeWriteTrace(trace, flags);
  return 0;
}

int RunDataParallel(const Flags& flags) {
  const NnModel model = MakeModel(flags.Get("model", "resnet50"),
                                  flags.GetInt("batch", 128),
                                  flags.GetInt("image", 224));
  const TrainGraph graph(&model);

  DataParallelConfig config;
  config.cluster = MakeCluster(flags.Get("cluster", "puba"));
  config.num_gpus = flags.GetInt("gpus", 16);
  config.scheme = flags.Get("scheme", "byteps") == "horovod"
                      ? CommScheme::kHorovod
                      : CommScheme::kBytePS;
  const DataParallelEngine engine(config);

  int k = flags.GetInt("k", -1);
  if (k < 0) {
    const KSearchResult search = SearchBestK(model.num_layers(), [&](int kk) {
      return engine.Run(model, ReverseFirstK(graph, kk).order).throughput;
    });
    k = search.best_k;
    std::printf("k search: best k = %d (%zu probes)\n", k,
                search.evaluations.size());
  }
  TraceRecorder trace;
  const TrainMetrics metrics =
      engine.Run(model, ReverseFirstK(graph, k).order, &trace);
  std::printf("data-parallel %s on %d x %s (%s), k=%d\n", model.name.c_str(),
              config.num_gpus, config.cluster.gpu.name.c_str(),
              config.cluster.name.c_str(), k);
  PrintMetrics(metrics);
  MaybeWriteTrace(trace, flags);
  return 0;
}

PipelineStrategy ParseStrategy(const std::string& s) {
  if (s == "gpipe") {
    return PipelineStrategy::kGPipe;
  }
  if (s == "dapple") {
    return PipelineStrategy::kDapple;
  }
  if (s == "pipedream") {
    return PipelineStrategy::kPipeDream;
  }
  if (s == "megatron") {
    return PipelineStrategy::kMegatron;
  }
  if (s == "megatron-ff") {
    return PipelineStrategy::kMegatronFF;
  }
  if (s == "ooo1") {
    return PipelineStrategy::kOooPipe1;
  }
  return PipelineStrategy::kOooPipe2;
}

int RunPipeline(const Flags& flags) {
  const int micro_batches = flags.GetInt("micro", 4);
  const int batch = flags.GetInt("batch", 96);
  const NnModel micro = MakeModel(flags.Get("model", "bert24"),
                                  std::max(1, batch / micro_batches),
                                  flags.GetInt("image", 224));
  PipelineConfig config;
  config.cluster = MakeCluster(flags.Get("cluster", "pubb"));
  config.num_gpus = flags.GetInt("gpus", 4);
  config.num_micro_batches = micro_batches;
  config.modulo_group_size = flags.GetInt("group", 1);
  config.reverse_first_k = flags.GetInt("k", 0);

  const PipelineStrategy strategy =
      ParseStrategy(flags.Get("strategy", "ooo2"));
  TraceRecorder trace;
  const PipelineResult r =
      PipelineEngine(config).Run(micro, strategy, &trace);
  std::printf("pipeline %s: %s on %d GPUs, %d micro-batches\n",
              PipelineStrategyName(strategy), micro.name.c_str(),
              config.num_gpus, micro_batches);
  PrintMetrics(r.metrics);
  if (r.weight_versions > 1) {
    std::printf("weight versions (staleness): %d\n", r.weight_versions);
  }
  MaybeWriteTrace(trace, flags);
  return 0;
}

int RunHybrid(const Flags& flags) {
  const NnModel micro =
      MakeModel(flags.Get("model", "bert24"), flags.GetInt("batch", 16),
                flags.GetInt("image", 224));
  HybridConfig config;
  config.pipeline.cluster = MakeCluster(flags.Get("cluster", "pubb"));
  config.pipeline.num_gpus = flags.GetInt("gpus", 8);
  config.pipeline.num_micro_batches =
      flags.GetInt("micro", config.pipeline.num_gpus);
  config.pipeline.reverse_first_k = flags.GetInt("k", 0);
  config.dp_groups = flags.GetInt("replicas", 2);

  const PipelineStrategy strategy =
      ParseStrategy(flags.Get("strategy", "ooo2"));
  const HybridResult r = HybridEngine(config).Run(micro, strategy);
  std::printf("hybrid %s: %s, %d-stage pipe x %d replicas (%d GPUs)\n",
              PipelineStrategyName(strategy), micro.name.c_str(),
              config.pipeline.num_gpus, config.dp_groups, r.total_gpus);
  PrintMetrics(r.metrics);
  std::printf("pipeline makespan: %.2f ms, exposed sync: %.2f ms\n",
              ToMs(r.pipeline_makespan), ToMs(r.exposed_sync));
  return 0;
}

int RunSearch(const Flags& flags) {
  const std::string unknown = flags.FirstUnknown(
      {"model", "batch", "image", "gpu", "beam", "seed", "budget", "threads",
       "export-schedule"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return 2;
  }
  const NnModel model = MakeModel(flags.Get("model", "densenet121"),
                                  flags.GetInt("batch", 32),
                                  flags.GetInt("image", 224));
  const TrainGraph graph(&model);
  const GpuSpec gpu = MakeGpu(flags.Get("gpu", "v100"));
  const SystemProfile profile = SystemProfile::TensorFlowXla();

  SearchOptions options;
  options.beam = flags.GetInt("beam", 4);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.budget = flags.GetInt("budget", 400);
  // --threads parallelizes the trajectory portfolio; results are
  // byte-identical for any value.
  options.threads = std::max(1, flags.GetInt("threads", 1));

  ScheduleEvaluator eval(&model, gpu, profile);
  const TimeNs conventional_time =
      eval.IterationTime(ConventionalIteration(graph));
  const JointScheduleResult ooo = MakeOooSchedule(graph, gpu, profile);
  const TimeNs ooo_time = eval.IterationTime(ooo.schedule);
  const SearchResult searched = SearchSchedule(graph, gpu, profile, options);
  const TimeNs search_time = eval.IterationTime(searched.schedule);

  // Machine-verify both schedules; a violation is a hard failure.
  const std::pair<const char*, const IterationSchedule*> checked[] = {
      {"ooo", &ooo.schedule}, {"searched", &searched.schedule}};
  for (const auto& [label, schedule] : checked) {
    const ScheduleCheckReport report = CheckIterationSchedule(graph, *schedule);
    if (!report.ok()) {
      std::fprintf(stderr, "search: %s schedule failed verification:\n%s\n",
                   label, report.ToString().c_str());
      return 1;
    }
  }

  std::printf("schedule search: %s on %s (beam=%d seed=%d budget=%d)\n",
              model.name.c_str(), gpu.name.c_str(), options.beam,
              static_cast<int>(options.seed), options.budget);
  std::printf("conventional:  %.3f ms/iter\n", ToMs(conventional_time));
  std::printf("ooo heuristic: %.3f ms/iter  (%.3fx)\n", ToMs(ooo_time),
              static_cast<double>(conventional_time) / ooo_time);
  std::printf("searched:      %.3f ms/iter  (%.3fx)\n", ToMs(search_time),
              static_cast<double>(conventional_time) / search_time);
  std::printf("optimality gap: %.2f%% (heuristic above searched best)\n",
              100.0 * (static_cast<double>(ooo_time) - search_time) /
                  static_cast<double>(search_time));
  std::printf("peak memory:   %.0f MB (searched), %.0f MB (ooo)\n",
              searched.peak_memory / 1e6, ooo.peak_memory / 1e6);
  std::printf("schedules verified: CheckIterationSchedule ok\n");

  const std::string export_path = flags.Get("export-schedule", "");
  if (!export_path.empty() &&
      WriteScheduleFile(export_path, searched.schedule, model.name,
                        model.num_layers())) {
    std::printf("schedule written to %s\n", export_path.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: oobp_sim <mode> [--flags]\n"
      "\n"
      "modes:\n"
      "  single    one training iteration of a zoo model on one GPU under\n"
      "            the xla / ooo / nimble execution systems\n"
      "  dp        data-parallel training across N GPUs (byteps / horovod\n"
      "            gradient sync, reverse-k search)\n"
      "  pipeline  pipeline-parallel training (gpipe / dapple / pipedream /\n"
      "            megatron / ooo1 / ooo2 schedules)\n"
      "  hybrid    pipeline stages replicated into data-parallel groups\n"
      "  replay    re-run an exported schedule artifact against the\n"
      "            simulator and diff the timings\n"
      "  search    seeded beam/local-search scheduler baseline over op\n"
      "            orderings and stream assignments; reports the\n"
      "            MakeOooSchedule-vs-searched optimality gap\n"
      "  bench     scenario runner: paper figures, serving, sweeps, fleet,\n"
      "            cluster; golden comparison and the perf harness\n"
      "            (`bench --help` lists its flags)\n"
      "  fuzz      seeded differential fuzzer over schedules, memory,\n"
      "            training, DAG, link, serving, fleet, search and\n"
      "            pipeline checkers\n"
      "            (`fuzz --help` lists its flags)\n"
      "\n"
      "see the header comment of tools/oobp_sim.cc for per-mode flags\n");
  return 2;
}

}  // namespace
}  // namespace oobp

int main(int argc, char** argv) {
  if (argc < 2) {
    return oobp::Usage();
  }
  const std::string mode = argv[1];
  const oobp::Flags flags(argc, argv);
  if (mode == "single") {
    return oobp::RunSingle(flags);
  }
  if (mode == "dp") {
    return oobp::RunDataParallel(flags);
  }
  if (mode == "pipeline") {
    return oobp::RunPipeline(flags);
  }
  if (mode == "hybrid") {
    return oobp::RunHybrid(flags);
  }
  if (mode == "replay") {
    return oobp::RunReplay(flags);
  }
  if (mode == "search") {
    return oobp::RunSearch(flags);
  }
  if (mode == "bench") {
    return oobp::BenchMain(argc, argv);
  }
  if (mode == "fuzz") {
    return oobp::FuzzMain(argc, argv);
  }
  return oobp::Usage();
}

// `train`: the paper's own traffic (Figures 7, 10 and 13 plus the
// parameter-server cluster). One op plans and simulates one config.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hostbench/bench.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/k_search.h"
#include "src/core/modulo_alloc.h"
#include "src/core/reverse_k.h"
#include "src/nn/model_zoo.h"
#include "src/runtime/cluster_ps_engine.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/validate/schedule_checker.h"

namespace hostbench {

namespace {

using namespace oobp;

// An iteration schedule that runs a backprop order on the main stream with
// each weight update right after its weight gradient, then the forward pass,
// so data-parallel backprop orders go through CheckIterationSchedule too.
IterationSchedule IterationFromBackprop(const TrainGraph& graph,
                                        const std::vector<TrainOp>& order) {
  IterationSchedule sched;
  for (const TrainOp& op : order) {
    sched.ops.push_back({op, kMainStream, -1});
    if (op.type == TrainOpType::kWeightGrad) {
      sched.ops.push_back(
          {{TrainOpType::kWeightUpdate, op.layer}, kMainStream, -1});
    }
  }
  for (const TrainOp& op : graph.Forward()) {
    sched.ops.push_back({op, kMainStream, -1});
  }
  return sched;
}

enum class Kind { kSingleGpu, kDataParallel, kPipeline, kClusterPs };
enum class SingleSystem { kXla, kXlaOpt1, kOoo, kNimble };
enum class DpScheme { kHorovod, kBytePS, kReverseK, kSearchBestK };

struct Job {
  Kind kind = Kind::kSingleGpu;
  std::string model;  // key into the model table
  SingleSystem system = SingleSystem::kXla;
  DpScheme scheme = DpScheme::kBytePS;
  int cluster = 0;    // 0 Priv-A, 1 Priv-B, 2 Pub-A
  int gpus = 1;
  int k = 0;          // fixed reverse-first-k
  PipelineStrategy strategy = PipelineStrategy::kGPipe;
  int micro_batches = 1;
  int iterations = 3;  // measured iterations (single-GPU, PipeDream)
  bool ooo = false;
  uint64_t straggler_seed = 0;
};

struct ModelEntry {
  std::unique_ptr<NnModel> model;
  std::unique_ptr<TrainGraph> graph;
};

ClusterSpec ClusterOf(int index) {
  switch (index) {
    case 0:
      return ClusterSpec::PrivA();
    case 1:
      return ClusterSpec::PrivB();
    default:
      return ClusterSpec::PubA();
  }
}

// Single-GPU ops are about an order of magnitude cheaper than multi-GPU
// ones, so the Figure 7 grid repeats and the two groups take comparable
// shares of host time.
constexpr int kSingleRepeats = 12;

class TrainWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    jobs_.clear();
    models_.clear();
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x7124);
    auto pick = [&rng](const auto& options) {
      return options[rng.NextBelow(options.size())];
    };

    // A balanced grid of configs: the seed draws only parameters that leave
    // an op's host cost about the same (batch size, GPU count, k, straggler
    // seeds), so every seed's list costs about the same to run. Pipeline
    // configs are all fixed: their host cost moves with the micro-batch size.
    //
    // Figure 7: each (model, system) pair kSingleRepeats times, half of them
    // long enough (24 measured iterations) for steady-state replay.
    for (int rep = 0; rep < kSingleRepeats; ++rep) {
      for (const char* family : {"densenet121", "densenet169", "mobilenet",
                                 "resnet50", "resnet101"}) {
        for (const SingleSystem system :
             {SingleSystem::kXla, SingleSystem::kXlaOpt1, SingleSystem::kOoo,
              SingleSystem::kNimble}) {
          Job job;
          job.kind = Kind::kSingleGpu;
          job.system = system;
          job.iterations = rep % 2 == 0 ? 3 : 24;
          job.model =
              StrFormat("%s:B%d", family, pick(std::vector<int>{32, 48, 64}));
          jobs_.push_back(job);
        }
      }
    }

    // Figure 10: ResNet-50/101 data parallelism on the three clusters.
    const std::vector<std::vector<int>> gpu_counts = {
        {2, 4, 8}, {4, 8, 16, 20}, {4, 8, 16, 32, 48}};
    for (int cluster = 0; cluster < 3; ++cluster) {
      for (const DpScheme scheme :
           {DpScheme::kHorovod, DpScheme::kBytePS, DpScheme::kReverseK,
            DpScheme::kSearchBestK}) {
        for (const int depth : {50, 101}) {
          Job job;
          job.kind = Kind::kDataParallel;
          job.cluster = cluster;
          job.scheme = scheme;
          const int batch = cluster == 2 ? (depth == 50 ? 128 : 96) : 64;
          job.model = StrFormat("resnet%d:B%d", depth, batch);
          job.gpus = pick(gpu_counts[static_cast<size_t>(cluster)]);
          job.k = 1 + static_cast<int>(rng.NextBelow(depth == 50 ? 50 : 100));
          jobs_.push_back(job);
        }
      }
    }

    // Figure 13: GPipe / PipeDream / OOO-Pipe2 on Pub-B.
    for (const PipelineStrategy strategy :
         {PipelineStrategy::kGPipe, PipelineStrategy::kPipeDream,
          PipelineStrategy::kOooPipe2}) {
      for (const int layers : {12, 24}) {
        for (const int gpus : {4, 8}) {
          for (const int per_gpu : {1, 2}) {
            Job job;
            job.kind = Kind::kPipeline;
            job.strategy = strategy;
            job.gpus = gpus;
            job.micro_batches = gpus * per_gpu;
            // PipeDream streams iterations with no flush; 16 of them are
            // enough for steady-state replay.
            job.iterations =
                strategy == PipelineStrategy::kPipeDream ? 16 : 3;
            job.model =
                StrFormat("bert%d:B%d", layers, 256 / job.micro_batches);
            jobs_.push_back(job);
          }
        }
      }
    }

    // The 16-worker parameter-server cluster, both gradient orders.
    for (const bool ooo : {false, true}) {
      Job job;
      job.kind = Kind::kClusterPs;
      job.model = "resnet50:B32";
      job.ooo = ooo;
      job.straggler_seed = rng.NextU64();
      jobs_.push_back(job);
    }

    // Seeded order, so consecutive ops differ in kind.
    for (size_t i = jobs_.size(); i > 1; --i) {
      std::swap(jobs_[i - 1], jobs_[rng.NextBelow(i)]);
    }

    for (const Job& job : jobs_) {
      BuildModel(job.model);
    }
    results_.assign(jobs_.size(), Result{});
  }

  size_t num_jobs() const override { return jobs_.size(); }
  int models_built() const override { return static_cast<int>(models_.size()); }

  void RunOp(size_t index, Counters* counters) override {
    const Job& job = jobs_[index];
    const ModelEntry& entry = models_.at(job.model);
    const NnModel& model = *entry.model;
    const TrainGraph& graph = *entry.graph;
    Result& r = results_[index];
    switch (job.kind) {
      case Kind::kSingleGpu:
        RunSingleGpu(job, model, graph, &r, counters);
        break;
      case Kind::kDataParallel:
        RunDataParallel(job, model, graph, &r, counters);
        break;
      case Kind::kPipeline: {
        PipelineConfig config;
        config.cluster = ClusterSpec::PubB(5);
        config.num_gpus = job.gpus;
        config.num_micro_batches = job.micro_batches;
        config.measured_iterations = job.iterations;
        const PipelineEngine engine(config);
        ReplayStats stats;
        {
          Span span("PipelineEngine::Run", Layer::kRuntime);
          r.pipe = engine.Run(model, job.strategy, nullptr, &stats);
        }
        r.metrics = r.pipe.metrics;
        counters->runtime_runs += 1;
        counters->replay_attempted += stats.attempted ? 1 : 0;
        counters->replay_replayed += stats.replayed ? 1 : 0;
        break;
      }
      case Kind::kClusterPs: {
        ClusterPsConfig config;
        config.gpu = GpuSpec::V100();
        config.profile = SystemProfile::TensorFlowXla();
        config.uplink = LinkSpec::Eth10G();
        config.downlink = LinkSpec::Eth10G();
        config.workers = 16;
        config.iterations = 3;
        config.ooo = job.ooo;
        config.straggler_spread = 0.15;
        config.straggler_seed = job.straggler_seed;
        const ClusterPsEngine engine(config);
        Span span("ClusterPsEngine::Run", Layer::kRuntime);
        r.cluster = engine.Run(model);
        counters->runtime_runs += 1;
        break;
      }
    }
  }

  bool Check(size_t index, Digest* digest, std::string* error) override {
    const Job& job = jobs_[index];
    const ModelEntry& entry = models_.at(job.model);
    const Result& r = results_[index];
    const TrainMetrics& m = r.metrics;
    if (job.kind == Kind::kClusterPs) {
      const ClusterPsMetrics& c = r.cluster;
      digest->Add(c.iteration_time);
      digest->Add(c.worker_iter_min);
      digest->Add(c.worker_iter_max);
      digest->Add(c.makespan);
      digest->Add(c.sync_stall_frac);
      digest->Add(c.bytes_pushed);
      digest->Add(c.uplink_busy_frac);
      digest->Add(c.processed_events);
      if (c.iteration_time <= 0 || c.makespan < c.iteration_time ||
          c.worker_iter_min > c.worker_iter_max || c.bytes_pushed <= 0) {
        *error = "cluster_ps metrics inconsistent";
        return false;
      }
      return true;
    }
    digest->Add(m.iteration_time);
    digest->Add(m.throughput);
    digest->Add(m.gpu_utilization);
    digest->Add(m.comm_comp_ratio);
    digest->Add(m.peak_memory_bytes);
    digest->Add(m.oom ? 1 : 0);
    if (m.iteration_time <= 0 || !(m.throughput > 0) ||
        m.gpu_utilization < 0 || m.gpu_utilization > 1.0 + 1e-9) {
      *error = StrFormat("%s: implausible training metrics", job.model.c_str());
      return false;
    }
    switch (job.kind) {
      case Kind::kSingleGpu:
      case Kind::kDataParallel: {
        digest->Add(r.best_k);
        const ScheduleCheckReport report = CheckIterationSchedule(
            *entry.graph, job.kind == Kind::kSingleGpu
                              ? r.schedule
                              : IterationFromBackprop(*entry.graph, r.order));
        if (!report.ok()) {
          *error = job.model + ": " + report.ToString();
          return false;
        }
        return true;
      }
      case Kind::kPipeline: {
        digest->Add(r.pipe.weight_versions);
        for (const int64_t bytes : r.pipe.per_gpu_peak_memory) {
          digest->Add(bytes);
        }
        if (static_cast<int>(r.pipe.assignment.size()) !=
                entry.model->num_layers() ||
            !AssignmentCoversAllGpus(r.pipe.assignment, job.gpus)) {
          *error = job.model + ": pipeline layer assignment invalid";
          return false;
        }
        return true;
      }
      case Kind::kClusterPs:
        break;
    }
    return true;
  }

 private:
  struct Result {
    TrainMetrics metrics;
    IterationSchedule schedule;  // single-GPU
    std::vector<TrainOp> order;  // data-parallel backprop order
    int best_k = -1;
    PipelineResult pipe;
    ClusterPsMetrics cluster;
  };

  void BuildModel(const std::string& key) {
    if (models_.count(key) != 0) {
      return;
    }
    const size_t colon = key.find(':');
    const std::string family = key.substr(0, colon);
    const int batch = std::stoi(key.substr(colon + 2));
    ModelEntry entry;
    {
      Span span("model zoo build", Layer::kNn);
      NnModel model;
      if (family == "densenet121") {
        model = DenseNet(121, 24, batch, 32);
      } else if (family == "densenet169") {
        model = DenseNet(169, 32, batch, 32);
      } else if (family == "mobilenet") {
        model = MobileNetV3Large(0.75, batch, 224);
      } else if (family == "resnet50") {
        model = ResNet(50, batch, 224);
      } else if (family == "resnet101") {
        model = ResNet(101, batch, 224);
      } else if (family == "bert12") {
        model = Bert(12, batch);
      } else {
        model = Bert(24, batch);
      }
      entry.model = std::make_unique<NnModel>(std::move(model));
    }
    {
      Span span("TrainGraph", Layer::kNn);
      entry.graph = std::make_unique<TrainGraph>(entry.model.get());
    }
    models_.emplace(key, std::move(entry));
  }

  static void RunSingleGpu(const Job& job, const NnModel& model,
                           const TrainGraph& graph, Result* r,
                           Counters* counters) {
    const GpuSpec gpu = GpuSpec::V100();
    SingleGpuConfig config{gpu, SystemProfile::TensorFlowXla(),
                           /*precompiled_issue=*/true, job.iterations};
    if (job.system == SingleSystem::kOoo) {
      Span span("MakeOooSchedule", Layer::kCore);
      r->schedule = MakeOooSchedule(graph, gpu, config.profile).schedule;
      counters->plan_calls += 1;
    } else {
      r->schedule = ConventionalIteration(graph);
    }
    if (job.system == SingleSystem::kXla) {
      config.precompiled_issue = false;
    } else if (job.system == SingleSystem::kNimble) {
      config.profile = SystemProfile::PyTorchNimble();
    }
    ReplayStats stats;
    {
      Span span("SingleGpuEngine::Run", Layer::kRuntime);
      r->metrics = SingleGpuEngine(config).Run(model, r->schedule, nullptr,
                                               &stats);
    }
    counters->runtime_runs += 1;
    counters->replay_attempted += stats.attempted ? 1 : 0;
    counters->replay_replayed += stats.replayed ? 1 : 0;
  }

  static void RunDataParallel(const Job& job, const NnModel& model,
                              const TrainGraph& graph, Result* r,
                              Counters* counters) {
    DataParallelConfig config;
    config.cluster = ClusterOf(job.cluster);
    config.num_gpus = job.gpus;
    config.scheme = job.scheme == DpScheme::kHorovod ? CommScheme::kHorovod
                                                     : CommScheme::kBytePS;
    const DataParallelEngine engine(config);
    auto run = [&](const std::vector<TrainOp>& order) {
      Span span("DataParallelEngine::Run", Layer::kRuntime);
      counters->runtime_runs += 1;
      return engine.Run(model, order);
    };
    auto reverse_k = [&](int k) {
      Span span("ReverseFirstK", Layer::kCore);
      counters->plan_calls += 1;
      return ReverseFirstK(graph, k).order;
    };
    std::vector<TrainOp>& order = r->order;
    switch (job.scheme) {
      case DpScheme::kHorovod:
      case DpScheme::kBytePS:
        order = graph.ConventionalBackprop();
        break;
      case DpScheme::kReverseK:
        order = reverse_k(job.k);
        r->best_k = job.k;
        break;
      case DpScheme::kSearchBestK: {
        Span span("SearchBestK", Layer::kCore);
        counters->plan_calls += 1;
        const KSearchResult search =
            SearchBestK(model.num_layers(), [&](int k) {
              counters->k_probes += 1;
              return run(reverse_k(k)).throughput;
            });
        r->best_k = search.best_k;
        order = reverse_k(search.best_k);
        break;
      }
    }
    r->metrics = run(order);
  }

  std::vector<Job> jobs_;
  std::map<std::string, ModelEntry> models_;
  std::vector<Result> results_;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainWorkload() {
  return std::make_unique<TrainWorkload>();
}

}  // namespace hostbench

// `schedule_search`: seeded two-tier SearchSchedule over zoo models and the
// paper's GPUs, with a fixed beam and budget. One op searches one model; the
// check re-scores the winner with the event-driven ScheduleEvaluator.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hostbench/bench.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/search/evaluator.h"
#include "src/search/search.h"
#include "src/validate/schedule_checker.h"

namespace hostbench {
namespace {

using namespace oobp;

constexpr int kRepeats = 14;
constexpr int kBeam = 4;
constexpr int kBudget = 60;
constexpr int kThreads = 2;

GpuSpec GpuOf(int index) {
  switch (index) {
    case 0:
      return GpuSpec::V100();
    case 1:
      return GpuSpec::P100();
    default:
      return GpuSpec::TitanXp();
  }
}

struct Job {
  int model = 0;  // index into the model table
  int gpu = 0;
  uint64_t seed = 1;
};

struct ModelEntry {
  std::unique_ptr<NnModel> model;
  std::unique_ptr<TrainGraph> graph;
};

class ScheduleSearchWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    jobs_.clear();
    models_.clear();
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EA5C);
    // Every (model, GPU) pair kRepeats times; the seed draws each search's
    // trajectory seed.
    const int num_models = 5;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (int m = 0; m < num_models; ++m) {
        for (int g = 0; g < 3; ++g) {
          jobs_.push_back({m, g, 1 + rng.NextBelow(1u << 20)});
        }
      }
    }
    for (size_t i = jobs_.size(); i > 1; --i) {
      std::swap(jobs_[i - 1], jobs_[rng.NextBelow(i)]);
    }
    const int batch = 32;
    for (int m = 0; m < num_models; ++m) {
      ModelEntry entry;
      {
        Span span("model zoo build", Layer::kNn);
        NnModel model;
        switch (m) {
          case 0:
            model = DenseNet(121, 24, batch, 32);
            break;
          case 1:
            model = MobileNetV3Large(0.75, batch, 224);
            break;
          case 2:
            model = ResNet(50, batch, 224);
            break;
          case 3:
            model = ResNet(101, batch, 224);
            break;
          default:
            model = Bert(12, batch / 4);
            break;
        }
        entry.model = std::make_unique<NnModel>(std::move(model));
      }
      {
        Span span("TrainGraph", Layer::kNn);
        entry.graph = std::make_unique<TrainGraph>(entry.model.get());
      }
      models_.push_back(std::move(entry));
    }
    // The evaluators take their cost model from the process-wide cache.
    for (int g = 0; g < 3; ++g) {
      Span span("CachedCostModel", Layer::kNn);
      CachedCostModel(GpuOf(g), SystemProfile::TensorFlowXla());
    }
    results_.assign(jobs_.size(), SearchResult{});
  }

  size_t num_jobs() const override { return jobs_.size(); }
  int models_built() const override { return static_cast<int>(models_.size()); }
  int threads() const override { return kThreads; }

  void RunOp(size_t index, Counters* counters) override {
    const Job& job = jobs_[index];
    SearchOptions options;
    options.beam = kBeam;
    options.budget = kBudget;
    options.seed = job.seed;
    options.threads = kThreads;
    options.eval_mode = SearchEvalMode::kTwoTier;
    SearchResult& r = results_[index];
    {
      Span span("SearchSchedule", Layer::kSearch);
      r = SearchSchedule(*models_[static_cast<size_t>(job.model)].graph,
                         GpuOf(job.gpu), SystemProfile::TensorFlowXla(),
                         options);
    }
    counters->analytic_evals += r.stats.analytic_evals;
    counters->tier_b_evals += r.stats.sim_evals;
    counters->cache_hits += static_cast<int64_t>(r.stats.cache_hits);
    counters->cache_misses += static_cast<int64_t>(r.stats.cache_misses);
  }

  bool Check(size_t index, Digest* digest, std::string* error) override {
    const Job& job = jobs_[index];
    const ModelEntry& entry = models_[static_cast<size_t>(job.model)];
    const SearchResult& r = results_[index];
    digest->Add(r.best_time);
    digest->Add(r.conventional_time);
    digest->Add(r.peak_memory);
    digest->Add(r.evaluations);
    digest->Add(r.stats.analytic_evals);
    digest->Add(r.stats.sim_evals);
    digest->Add(r.stats.cache_hits);
    digest->Add(r.stats.cache_misses);
    for (const WgradGene& gene : r.genotype) {
      digest->Add(gene.layer);
      digest->Add(gene.slot);
      digest->Add(gene.stream);
    }
    const ScheduleCheckReport report =
        CheckIterationSchedule(*entry.graph, r.schedule);
    if (!report.ok()) {
      *error = entry.model->name + ": " + report.ToString();
      return false;
    }
    ScheduleEvaluator eval(entry.model.get(), GpuOf(job.gpu),
                           SystemProfile::TensorFlowXla());
    const TimeNs rescored = eval.IterationTime(r.schedule);
    if (rescored != r.best_time || r.best_time > r.conventional_time ||
        r.stats.analytic_evals <= 0) {
      *error = StrFormat("%s: best %lld ns, re-scored %lld ns, "
                         "in-order %lld ns",
                         entry.model->name.c_str(),
                         static_cast<long long>(r.best_time),
                         static_cast<long long>(rescored),
                         static_cast<long long>(r.conventional_time));
      return false;
    }
    return true;
  }

 private:
  std::vector<Job> jobs_;
  std::vector<ModelEntry> models_;
  std::vector<SearchResult> results_;
};

}  // namespace

std::unique_ptr<Workload> MakeScheduleSearchWorkload() {
  return std::make_unique<ScheduleSearchWorkload>();
}

}  // namespace hostbench

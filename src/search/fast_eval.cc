#include "src/search/fast_eval.h"

#include <atomic>

#include "src/common/check.h"
#include "src/nn/model_cache.h"
#include "src/runtime/train_sim.h"
#include "src/search/evaluator.h"

namespace oobp {

namespace {

std::atomic<uint64_t> g_total_analytic_evals{0};

}  // namespace

FastScheduleEvaluator::FastScheduleEvaluator(const NnModel* model,
                                             const GpuSpec& gpu,
                                             const SystemProfile& profile)
    : cost_(CachedCostModel(gpu, profile)) {
  OOBP_CHECK(model != nullptr);
  const SingleGpuConfig config = ScoringConfig(gpu, profile);
  iterations_ = 1 + config.measured_iterations;
  executor_ = std::make_unique<TwoStreamExecutor>(config, *cost_, *model);
}

FastScheduleEvaluator::~FastScheduleEvaluator() = default;

uint64_t FastScheduleEvaluator::TotalAnalyticEvals() {
  return g_total_analytic_evals.load(std::memory_order_relaxed);
}

TimeNs FastScheduleEvaluator::IterationTime(const IterationSchedule& schedule) {
  OOBP_CHECK_GT(schedule.ops.size(), 0u);
  ++evaluations_;
  g_total_analytic_evals.fetch_add(1, std::memory_order_relaxed);
  return executor_->IterationTime(schedule, iterations_);
}

}  // namespace oobp

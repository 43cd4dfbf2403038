#include "src/search/evaluator.h"

#include "src/common/check.h"
#include "src/core/memory_model.h"

namespace oobp {
namespace {

SingleGpuConfig EvaluatorConfig(const GpuSpec& gpu,
                                const SystemProfile& profile) {
  SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = profile;
  config.precompiled_issue = true;
  // One warm-up plus two measured iterations: iteration 0 absorbs the graph
  // launch, iterations 1..2 are steady state for every schedule shape the
  // search emits.
  config.measured_iterations = 2;
  return config;
}

}  // namespace

ScheduleEvaluator::ScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                                     const SystemProfile& profile)
    : model_(model), engine_(EvaluatorConfig(gpu, profile)) {
  OOBP_CHECK(model_ != nullptr);
}

TimeNs ScheduleEvaluator::IterationTime(
    const IterationSchedule& schedule) const {
  return engine_.Run(*model_, schedule).iteration_time;
}

int64_t ScheduleEvaluator::PeakMemory(const IterationSchedule& schedule) const {
  return EstimateBackpropMemory(*model_, schedule.MergedOrder()).peak;
}

}  // namespace oobp

#include "src/search/evaluator.h"

#include "src/common/check.h"
#include "src/core/memory_model.h"

namespace oobp {

SingleGpuConfig ScoringConfig(const GpuSpec& gpu,
                              const SystemProfile& profile) {
  SingleGpuConfig config;
  config.gpu = gpu;
  config.profile = profile;
  config.precompiled_issue = true;
  config.measured_iterations = 2;
  return config;
}

ScheduleEvaluator::ScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                                     const SystemProfile& profile)
    : model_(model), engine_(ScoringConfig(gpu, profile)) {
  OOBP_CHECK(model_ != nullptr);
}

TimeNs ScheduleEvaluator::IterationTime(
    const IterationSchedule& schedule) const {
  return engine_.Run(*model_, schedule).iteration_time;
}

int64_t ScheduleEvaluator::PeakMemory(const IterationSchedule& schedule) const {
  return EstimateBackpropPeak(*model_, schedule).peak;
}

}  // namespace oobp

// The search's candidate scorer (DESIGN.md §14).
//
// FastScheduleEvaluator scores a schedule with the time-only entry point of
// SingleGpuEngine's exact two-stream executor (TwoStreamExecutor,
// src/runtime/train_sim.h): the run ScheduleEvaluator makes, without
// building TrainMetrics, a memory estimate or busy increments. One executor
// serves every candidate of an instance, so each (layer, op type)'s kernel
// cost is computed once and the buffers are reused. The scores equal
// ScheduleEvaluator's, and the event path's, bit for bit. The memory cap is
// not the scorer's: the search calls EstimateBackpropPeak
// (src/core/memory_model.h), as ScheduleEvaluator::PeakMemory does.
//
// Instances are not thread-safe (each search trajectory owns one); the
// process-wide evaluation counter is atomic and feeds the perf harness
// (bench/perf_baseline.json evals/sec floor).

#ifndef OOBP_SRC_SEARCH_FAST_EVAL_H_
#define OOBP_SRC_SEARCH_FAST_EVAL_H_

#include <cstdint>
#include <memory>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

class TwoStreamExecutor;

class FastScheduleEvaluator {
 public:
  // `model` must outlive the evaluator; the cost model comes from the
  // process-wide cache, shared with the engines and ScheduleEvaluator.
  FastScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                        const SystemProfile& profile);
  ~FastScheduleEvaluator();

  // Steady-state time of one training iteration: bit-identical to
  // ScheduleEvaluator::IterationTime on the same (model, gpu, profile,
  // schedule).
  TimeNs IterationTime(const IterationSchedule& schedule);

  // Evaluations performed by this instance.
  int64_t evaluations() const { return evaluations_; }

  // Process-wide evaluation count (all instances, all threads); the perf
  // harness samples deltas of this the way it samples simulator event
  // counts.
  static uint64_t TotalAnalyticEvals();

 private:
  std::shared_ptr<const CostModel> cost_;
  std::unique_ptr<TwoStreamExecutor> executor_;
  int iterations_ = 0;  // one warm-up plus the measured ones
  int64_t evaluations_ = 0;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_FAST_EVAL_H_

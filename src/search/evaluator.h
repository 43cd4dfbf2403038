// Simulator scoring for the search-based scheduler baseline (DESIGN.md §14).
//
// ScheduleEvaluator runs one IterationSchedule through SingleGpuEngine:
// pre-compiled issue, one warm-up plus two measured iterations
// (ScoringConfig). The engine runs it on the exact two-stream executor,
// which steps one iteration when the launch repeats at the first barrier,
// or on the event simulation in an observed run (src/hw/observer.h); the
// two agree bit for bit (DESIGN.md §6.3). The search scores its baseline and each
// trajectory's final point here, and every candidate with
// FastScheduleEvaluator (src/search/fast_eval.h), the same executor's
// time-only entry point.
//
// Determinism: the evaluation is a pure function of (model, gpu, profile,
// schedule), so scores are bit-reproducible across runs, --jobs threads,
// and machines.

#ifndef OOBP_SRC_SEARCH_EVALUATOR_H_
#define OOBP_SRC_SEARCH_EVALUATOR_H_

#include <cstdint>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"
#include "src/runtime/single_gpu_engine.h"

namespace oobp {

// The single-GPU run both search scorers make: pre-compiled issue, one
// warm-up plus two measured iterations. Iteration 0 absorbs the graph
// launch; iterations 1..2 are steady state for every schedule shape the
// search emits.
SingleGpuConfig ScoringConfig(const GpuSpec& gpu, const SystemProfile& profile);

class ScheduleEvaluator {
 public:
  // `model` must outlive the evaluator.
  ScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                    const SystemProfile& profile);

  // Simulated steady-state time of one training iteration under `schedule`:
  // the mean of iterations 1 and 2 of a three-iteration run (iteration 0
  // absorbs the graph launch).
  TimeNs IterationTime(const IterationSchedule& schedule) const;

  // Activation-memory peak (bytes, excluding weights/optimizer base) of the
  // schedule's issue order, from the shared memory model.
  int64_t PeakMemory(const IterationSchedule& schedule) const;

 private:
  const NnModel* model_;
  SingleGpuEngine engine_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_EVALUATOR_H_

// Incremental analytic schedule evaluator — the Tier-A scorer of the
// two-tier search evaluation pipeline (DESIGN.md §14).
//
// FastScheduleEvaluator computes the same steady-state iteration time as
// ScheduleEvaluator (src/search/evaluator.h) without driving the engine per
// candidate. The insight is that the trimmed evaluation workload is a closed
// two-stream system: in kPrecompiled mode the launcher enqueues every kernel
// at one instant (graph_launch_latency), so the full discrete-event
// simulation collapses to a tiny state machine — at most one running and
// one dispatched-but-not-started kernel per stream plus the single fluid
// wake-up timer. Replaying exactly the floating-point operations the
// FluidProcessor performs (rate = min(max_rate, free) in priority order,
// remaining = max(0, remaining - rate*dt) at every event boundary,
// completion at FluidProcessor::kWorkEpsilon, wake after
// FluidProcessor::WakeDelay) makes the analytic makespan BIT-IDENTICAL to
// the simulator's — not an approximation. The dependencies come from the
// shared rule, IterationDeps (src/core/schedule.h).
//
// Like SingleGpuEngine's executor, it applies the barrier rule stated
// beside IterationDeps: it simulates iteration 0 from the launch and, when
// iteration 0's F_{L-1} completes at a clean barrier that repeats the
// launch, returns E0 - t0; otherwise it simulates all three iterations. It
// is 1.6-1.7x faster than scoring each candidate with SingleGpuEngine::Run
// (DESIGN.md §14.1). Per instance it memoizes kernel costs per (layer, op
// type), so the cost model is consulted once per pair. The memory cap is not
// Tier A's: the search calls EstimateBackpropMemory
// (src/core/memory_model.h), as ScheduleEvaluator::PeakMemory does.
//
// Instances are not thread-safe (each search trajectory owns one); the
// process-wide analytic-evaluation counter is atomic and feeds the perf
// harness (bench/perf_baseline.json evals/sec floor).

#ifndef OOBP_SRC_SEARCH_FAST_EVAL_H_
#define OOBP_SRC_SEARCH_FAST_EVAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"

namespace oobp {

class FastScheduleEvaluator {
 public:
  // `model` must outlive the evaluator; the cost model comes from the
  // process-wide cache, shared with the engines and ScheduleEvaluator.
  FastScheduleEvaluator(const NnModel* model, const GpuSpec& gpu,
                        const SystemProfile& profile);

  // Steady-state time of one training iteration: bit-identical to
  // ScheduleEvaluator::IterationTime on the same (model, gpu, profile,
  // schedule).
  TimeNs IterationTime(const IterationSchedule& schedule);

  // Analytic evaluations performed by this instance.
  int64_t evaluations() const { return evaluations_; }

  // Process-wide analytic evaluation count (all instances, all threads);
  // the perf harness samples deltas of this the way it samples simulator
  // event counts.
  static uint64_t TotalAnalyticEvals();

 private:
  // What the sweep reads of one schedule position besides its
  // dependencies (deps_).
  struct PosMeta {
    double occ = 0.0;    // EffectiveOccupancy(thread_blocks, capacity)
    double work = 0.0;   // duration * occ: initial fluid `remaining`
    uint8_t stream = 0;  // kMainStream / kSubStream
  };
  // Lazily memoized kernel cost per (layer, op type): the cost model is
  // consulted once per pair instead of once per position and candidate.
  struct CostEntry {
    double occ = 0.0;
    double work = 0.0;
    bool init = false;
  };

  // Derives deps_, meta_ and the per-stream sequences of `schedule`.
  void RebuildMeta(const IterationSchedule& schedule);
  TimeNs RunSweep(size_t n);

  const NnModel* model_;
  std::shared_ptr<const CostModel> cost_;
  std::vector<CostEntry> cost_table_;  // [layer * 4 + op type]
  double capacity_ = 0.0;
  TimeNs exec_overhead_ = 0;
  TimeNs t0_ = 0;  // graph launch latency: the instant all items enqueue
  int64_t evaluations_ = 0;

  ScheduleDeps deps_;
  std::vector<PosMeta> meta_;
  std::vector<int32_t> seq_[2];  // per-stream issue order (positions)
  std::vector<int32_t> rank_;    // position -> index within its stream
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_FAST_EVAL_H_

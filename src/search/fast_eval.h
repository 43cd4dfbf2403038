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
// It is about 2.3x faster than scoring each candidate with
// SingleGpuEngine::Run, and keeps only the layers that measurably pay
// (DESIGN.md §14.1-14.3). Per instance:
//   * a lazily filled kernel-cost memo per (layer, op type);
//   * sweep checkpoints: complete machine states captured whenever a
//     first-iteration item with a new maximum index is dispatched. At that
//     instant the machine state provably depends only on earlier schedule
//     positions, so a later candidate that differs first at position p
//     resumes from the latest checkpoint with key <= p and re-simulates
//     only the suffix (the local-search mutators flip one WgradGene at a
//     time, so consecutive candidates share a long prefix);
//   * inside each sweep, a steady-state anchor that fast-forwards the
//     third iteration when the second repeats the first (RunSweep).
// The memory cap is not Tier A's: the search calls EstimateBackpropMemory
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
  // schedule). Incremental against the previously evaluated schedule.
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

  // Complete machine state of the analytic sweep; small enough to snapshot.
  struct SweepState {
    TimeNs now = 0;
    // Dispatched item count per stream (flat index into the per-stream
    // issue sequence across iterations). The dispatched/completed tests
    // derive from these cursors plus the in-flight slots below, so no
    // per-item done flags need checkpointing.
    uint64_t ptr[2] = {0, 0};
    int32_t pend[2] = {-1, -1};   // dispatched, paying exec overhead
    TimeNs pend_at[2] = {0, 0};   // its execution start time
    int32_t run[2] = {-1, -1};    // occupying fluid slots
    double rem[2] = {0.0, 0.0};   // remaining work (rate*ns)
    double occ[2] = {0.0, 0.0};   // max_rate of the running kernel
    uint64_t started_seq[2] = {0, 0};  // fluid job seq (completion order)
    uint64_t next_seq = 1;        // mirrors FluidProcessor::next_id_
    uint32_t completed = 0;
    int32_t max_disp = -1;        // highest item index dispatched so far
    TimeNs iter_end[3] = {0, 0, 0};  // per-iteration completion maxima
  };
  struct SweepCkpt {
    int32_t next_item = 0;  // the item about to be dispatched (the key)
    SweepState state;
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

  std::vector<ScheduledOp> ops_;  // the previous candidate, diffed against
  ScheduleDeps deps_;
  std::vector<PosMeta> meta_;
  std::vector<int32_t> seq_[2];  // per-stream issue order (positions)
  std::vector<int32_t> rank_;    // position -> index within its stream
  std::vector<SweepCkpt> sweep_ckpts_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SEARCH_FAST_EVAL_H_

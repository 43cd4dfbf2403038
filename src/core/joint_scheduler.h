// Multi-region joint scheduling — Algorithm 1 of the paper (Section 4.1).
//
// Greedy list scheduling over profiled regions: the main stream executes
// forward and output-gradient kernels in their natural order; weight
// gradients are placed, one at a time, into the (region, time) slot with the
// highest profiled co-run speedup, respecting readiness (dW_i becomes
// runnable when dO_{i+1} completes) and deadlines (dW_i and its update must
// land before the next iteration's F_i). A region leaves the candidate set
// once its simulated sub-stream time budget is exhausted (now[j] >=
// T_main(R[j])).
//
// Memory fallback (Section 4.1, last paragraph): if the resulting schedule's
// peak memory exceeds the cap, the first k backward regions are
// "pre-scheduled" — their weight gradients run as soon as they are ready —
// and the algorithm re-runs for the remaining regions with increasing k.
// When no k meets the cap, the result is the pass with every backward region
// pre-scheduled.

#ifndef OOBP_SRC_CORE_JOINT_SCHEDULER_H_
#define OOBP_SRC_CORE_JOINT_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/core/corun_profiler.h"
#include "src/core/memory_model.h"
#include "src/core/schedule.h"

namespace oobp {

struct JointScheduleOptions {
  // Peak activation-memory cap in bytes; < 0 means unconstrained. The paper
  // uses 1.1x the conventional execution's peak.
  int64_t memory_cap_bytes = -1;
};

struct JointScheduleResult {
  IterationSchedule schedule;
  // Region index each dW op was assigned to, parallel to `assigned_ops`.
  std::vector<TrainOp> assigned_ops;
  std::vector<int> assigned_region;
  // Number of leading backward regions that were pre-scheduled eagerly to
  // satisfy the memory cap (0 when the cap never bound).
  int pre_scheduled_regions = 0;
  int64_t peak_memory = 0;  // activation peak of the final schedule
};

// Work Algorithm 1 has done on the calling thread since the thread started:
// greedy passes (one per memory-fallback k tried) and co-run speedup
// evaluations (SpeedupAt calls). Both are deterministic for a given plan;
// `oobp bench --perf` reports their change over a scenario run, the way it
// reports simulator events.
struct PlannerWork {
  uint64_t passes = 0;
  uint64_t speedup_evals = 0;
};
PlannerWork ThreadPlannerWork();

JointScheduleResult MultiRegionJointSchedule(
    const TrainGraph& graph, const CorunProfiler& profiler,
    const JointScheduleOptions& options = {});

// The full OOO-XLA scheduling pipeline as one call: build regions, profile
// co-runs against `gpu`/`profile`, cap activation memory at
// `memory_cap_factor` x the conventional schedule's peak (the paper uses
// 1.1x), and run Algorithm 1. Shared by the CLI driver, the Figure 7
// scenarios, and the inference-serving co-run scenarios.
JointScheduleResult MakeOooSchedule(const TrainGraph& graph,
                                    const GpuSpec& gpu,
                                    const SystemProfile& profile,
                                    double memory_cap_factor = 1.1);

}  // namespace oobp

#endif  // OOBP_SRC_CORE_JOINT_SCHEDULER_H_

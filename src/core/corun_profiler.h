// Co-run profiling for multi-region joint scheduling (Section 4.1, step 1:
// "for all the region pairs we profile their concurrent kernel runs and
// record the speedups over their sequential runs").
//
// The paper profiles on real hardware as part of training; we profile
// against the same fluid SM-occupancy model the simulator executes, which
// keeps the planner's predictions and the simulated execution consistent.
// For each region the profiler derives a leftover-capacity profile: while a
// main-stream kernel with b thread blocks runs, C - min(b, C) slots remain
// for a sub-stream kernel. A candidate weight-gradient kernel's co-run time
// is the time to drain its work at that leftover rate (continuing at full
// rate past the region end), and its speedup is sequential time / joint
// makespan.

#ifndef OOBP_SRC_CORE_CORUN_PROFILER_H_
#define OOBP_SRC_CORE_CORUN_PROFILER_H_

#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/core/region.h"
#include "src/nn/cost_model.h"
#include "src/nn/train_graph.h"

namespace oobp {

// Sequential time over joint makespan, ((main_left + solo) / joint): the
// speedup formula SpeedupAt evaluates with joint = max(main_left, SubTimeAt).
// The planner's scan bound evaluates it with joint = main_left; one
// expression keeps the two rounded alike.
inline double CorunSpeedup(TimeNs main_left, TimeNs solo, TimeNs joint) {
  return static_cast<double>(main_left + solo) / static_cast<double>(joint);
}

class CorunProfiler {
 public:
  CorunProfiler(const TrainGraph& graph, const CostModel& cost,
                std::vector<Region> regions);

  int num_regions() const { return static_cast<int>(regions_.size()); }
  const Region& region(int r) const { return regions_[r]; }
  const std::vector<Region>& regions() const { return regions_; }

  // Total main-stream execution time of region r (incl. per-kernel setup).
  TimeNs MainDuration(int r) const;

  // Execution time of `op` when run alone on the device.
  TimeNs SoloTime(const TrainOp& op) const;

  // Execution time of the sub-stream kernel `op` when it starts `offset` ns
  // into region r and shares slots with the region's main kernels.
  TimeNs SubTimeAt(int r, const TrainOp& op, TimeNs offset) const;

  // Joint-vs-sequential speedup of co-scheduling `op` at `offset` in region
  // r: ((T_main - offset) + solo) / max(T_main - offset, SubTimeAt). >= 1.
  double SpeedupAt(int r, const TrainOp& op, TimeNs offset) const;

  // Earliest (region index, offset within region) at which the dW op is
  // runnable: right after dO_{layer+1} completes (region 0, offset 0 for the
  // last layer, whose gradient comes straight from the loss).
  std::pair<int, TimeNs> ReadyPoint(const TrainOp& op) const;

  // Exclusive deadline: the first region the dW op may NOT be scheduled in
  // (the forward region containing F_layer — the update must land first).
  // Returns num_regions() if unconstrained.
  int DeadlineRegion(const TrainOp& op) const;

 private:
  struct Segment {
    TimeNs duration;
    double leftover;  // free SM slots while this main kernel runs
  };

  // Memoized cost (the model is pure in (layer, type)); the planner queries
  // the same few hundred (layer, type) pairs hundreds of thousands of times
  // per schedule, so the roofline evaluation is hoisted into the ctor.
  const KernelCost& CachedCost(const TrainOp& op) const;

  const TrainGraph* graph_;
  const CostModel* cost_;
  std::vector<Region> regions_;
  std::vector<std::vector<Segment>> profiles_;
  // seg_end_[r][k] = end offset of segment k within region r (prefix sums of
  // segment durations); lets SubTimeAt binary-search its starting segment.
  std::vector<std::vector<TimeNs>> seg_end_;
  std::vector<TimeNs> main_duration_;
  // Layer-indexed lookups (dense: layer ids are 0..L-1).
  // dgrad_end_[layer] = (region index, offset of dO end within the region),
  // region -1 when dO_layer appears in no region.
  std::vector<std::pair<int, TimeNs>> dgrad_end_;
  // fwd_region_[layer] = region containing F_layer, or -1.
  std::vector<int> fwd_region_;
  // The op types the profiler reads: forward, output and weight gradient
  // (the first three TrainOpType values; updates never co-run here).
  static constexpr int kCachedOpTypes = 3;
  // cost_cache_[layer * kCachedOpTypes + op_type].
  std::vector<KernelCost> cost_cache_;
};

}  // namespace oobp

#endif  // OOBP_SRC_CORE_CORUN_PROFILER_H_

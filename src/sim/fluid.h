// Fluid (processor-sharing) resource model.
//
// A FluidProcessor owns `capacity` abstract rate units (for a GPU: thread
// block slots; for a shared bus: bytes/ns of bandwidth). Active jobs carry a
// total amount of work and a maximum rate they can absorb (for a kernel: its
// thread block count — a kernel with 448 blocks cannot use 1520 slots).
// Allocation is greedy in priority order, which models how the GPU execution
// engine favours a high-priority stream: the highest-priority job takes
// min(max_rate, remaining capacity), then the next, and so on.
//
// Progress accrues continuously between events. Whenever the active set
// changes the processor recomputes rates and schedules the next completion.
// This "fluid" approximation reproduces the phenomena the paper relies on:
//  * a low-occupancy kernel co-running with another low-occupancy kernel
//    finishes in nearly the same wall time as running alone (free speedup);
//  * a kernel that already saturates the slots gains nothing from co-running;
//  * total throughput never exceeds capacity (work conservation).
//
// Implementation: jobs live in a flat vector kept sorted by (priority, seq),
// so Reallocate() is a single allocation pass instead of the former
// sort-the-whole-map-per-call, and the pending completion wake-up is a
// cancellable SimEngine timer — superseded wake-ups are retracted from the
// event queue rather than left behind as generation-guarded dead events
// (which used to add one ghost event per Add/Cancel to every simulation).

#ifndef OOBP_SRC_SIM_FLUID_H_
#define OOBP_SRC_SIM_FLUID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/engine.h"

namespace oobp {

using FluidJobId = uint64_t;

// One term of the busy-integral accumulation: at simulation time `time`,
// `value` (rate*ns of work progressed by one job since the previous update)
// was added to the running integral. The steady-state replay optimization
// (src/runtime) records these to re-fold the exact floating-point sum a
// longer simulation would have produced — summation order is what makes the
// double bit-reproducible, so increments are replayed, never re-associated.
struct BusyIncrement {
  TimeNs time;
  double value;
};

class FluidProcessor {
 public:
  // Work below this many rate*ns counts as drained; absorbs the rounding
  // that integer-nanosecond completion times introduce.
  static constexpr double kWorkEpsilon = 1e-6;

  // Delay from `now` to the wake-up for the earliest completion, `min_tta`
  // ns away: ceil(min_tta), at least 1 ns. A starved-then-fed job with a
  // tiny rate can make min_tta exceed the TimeNs range, where the
  // float->int conversion would be undefined; the wake-up then clamps to
  // the end of simulated time (the job cannot finish anyway).
  static TimeNs WakeDelay(double min_tta, TimeNs now) {
    const TimeNs max_delay = std::numeric_limits<TimeNs>::max() - now;
    if (min_tta >= static_cast<double>(max_delay)) {
      return max_delay;
    }
    return std::max<TimeNs>(1, static_cast<TimeNs>(std::ceil(min_tta)));
  }

  // `capacity` is the total rate the processor can hand out; must be > 0.
  FluidProcessor(SimEngine* engine, double capacity);
  FluidProcessor(const FluidProcessor&) = delete;
  FluidProcessor& operator=(const FluidProcessor&) = delete;

  // Adds an active job. `work` is total rate*time units (e.g. slot-ns),
  // `max_rate` caps how much capacity the job can use at once, lower
  // `priority` values run first. `on_complete` fires when the work drains.
  FluidJobId Add(double work, double max_rate, int priority,
                 SimEngine::Callback on_complete);

  // Cancels an active job (no completion callback). Returns false if the job
  // already completed.
  bool Cancel(FluidJobId id);

  size_t active_jobs() const { return jobs_.size(); }
  double capacity() const { return capacity_; }

  // Integral of allocated rate over time, in rate*ns. busy_integral /
  // (capacity * elapsed) is the utilization of this resource.
  double busy_integral() const;

  // Current allocated rate of a job (0 if starved); for tests and traces.
  double RateOf(FluidJobId id) const;

  // Sum of all jobs' current rates; never exceeds capacity (validators
  // assert this at every simulation event).
  double allocated_rate() const;

  // Streams every nonzero busy-integral increment into `recorder` in
  // accumulation order (zero increments are exact no-ops of the fold and are
  // skipped). Pass nullptr to detach; when detached the hot path pays one
  // predicted-not-taken branch.
  void set_busy_recorder(std::vector<BusyIncrement>* recorder) {
    busy_recorder_ = recorder;
  }

 private:
  struct Job {
    double remaining;      // work left, in rate*ns
    double max_rate;       // occupancy cap
    int priority;          // lower runs first
    uint64_t seq;          // FIFO tie-break within a priority level; == id
    double rate = 0.0;     // current allocation
    SimEngine::Callback on_complete;
  };

  // Applies progress accrued since `last_update_`, completing drained jobs.
  void Advance();
  // Recomputes allocations and (re)schedules the next completion event,
  // cancelling any previously scheduled wake-up.
  void Reallocate();

  SimEngine* engine_;
  double capacity_;
  TimeNs last_update_ = 0;
  uint64_t next_id_ = 1;
  mutable double busy_integral_ = 0.0;
  // Sorted by (priority, seq): the greedy allocation order. Job counts are
  // small (concurrent kernels on a device), so inserts are cheap and every
  // Reallocate() pass is branch-predictable sequential access.
  std::vector<Job> jobs_;
  std::vector<BusyIncrement>* busy_recorder_ = nullptr;
  SimEngine::TimerHandle wake_;  // pending completion wake-up, if any
  // Scratch for Advance()/busy_integral(): reused across calls so the per-
  // event hot path performs no allocation. Only touched while no user code
  // runs (completion callbacks use the swap idiom in Advance()).
  mutable std::vector<std::pair<uint64_t, double>> contrib_scratch_;
  std::vector<std::pair<uint64_t, SimEngine::Callback>> completions_scratch_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SIM_FLUID_H_

// The two producers of one single-GPU training simulation's outcome. Only
// src/runtime/single_gpu_engine.cc, the search's scorer
// (src/search/fast_eval.cc) and tests include this header.
//
// SimulateTraining is the generic event simulation: a SimEngine driving a
// Gpu (two priority streams over a FluidProcessor) and a CpuLauncher. It
// builds the devices, so it is the only producer observers hear from, and
// it steps every iteration. TwoStreamExecutor runs the same closed model on
// four fixed event slots, steps only until a barrier repeats
// (src/core/schedule.h) and returns the same iteration ends and busy
// integral bit for bit (DESIGN.md §6.3, §9.2). SingleGpuEngine::Run takes
// the event simulation in an observed run and the executor otherwise
// (src/hw/observer.h), and the search scores every candidate with one
// executor's IterationTime.

#ifndef OOBP_SRC_RUNTIME_TRAIN_SIM_H_
#define OOBP_SRC_RUNTIME_TRAIN_SIM_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/nn/cost_model.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/runtime/slot_executor.h"
#include "src/sim/fluid.h"

namespace oobp {

// Outcome of one simulation of `iterations` training iterations.
struct TrainSimOutcome {
  std::vector<TimeNs> iter_end;  // every iteration's end
  double busy_integral = 0.0;
  // The nonzero busy contributions of the stepped iterations, in event
  // order: the busy integral is their left fold, extended by the executor.
  std::vector<BusyIncrement> increments;
  uint64_t events = 0;  // simulation events processed
  // Iterations stepped; the executor extrapolates the rest from a repeated
  // barrier (src/core/schedule.h), the event path steps them all.
  int simulated_iterations = 0;
};

TrainSimOutcome SimulateTraining(const SingleGpuConfig& config,
                                 const CostModel& cost, const NnModel& model,
                                 const IterationSchedule& schedule,
                                 int iterations);

// The exact two-stream executor (single_gpu_engine.cc says how it steps).
// One instance serves one (model, GPU, profile) and any number of schedules:
// it memoises each (layer, op type)'s kernel cost, occupancy and work and
// keeps its buffers across calls. Not thread-safe.
class TwoStreamExecutor {
 public:
  // `cost` and `model` must outlive the executor.
  TwoStreamExecutor(const SingleGpuConfig& config, const CostModel& cost,
                    const NnModel& model);
  ~TwoStreamExecutor();
  TwoStreamExecutor(const TwoStreamExecutor&) = delete;
  TwoStreamExecutor& operator=(const TwoStreamExecutor&) = delete;

  // SimulateTraining's outcome for `iterations` iterations of `schedule`.
  // Adds nothing to SimEngine's process-wide tally (ExecuteTraining does).
  TrainSimOutcome Run(const IterationSchedule& schedule, int iterations);

  // The time-only entry point: the iteration time SingleGpuEngine::Run
  // reports for one warm-up and `iterations - 1` measured iterations of
  // `schedule`, from the same steps as Run. It records no busy increments
  // and adds nothing to the tally. `iterations` must be at least 2.
  TimeNs IterationTime(const IterationSchedule& schedule, int iterations);

 private:
  class Pass;  // one run's stepping state

  enum Slot { kIssue, kBegin0, kBegin1, kWake, kSlots };
  // A kernel's cost as the executor reads it, memoised per (layer, op type).
  struct Kernel {
    bool known = false;
    TimeNs issue_latency = 0;
    StreamFluid<2>::Demand demand;
  };
  struct Position {
    StreamFluid<2>::Demand demand;
    int kernel = 0;       // index into kernels_
    int stream = 0;
    int rank = 0;         // index in its stream's order_
    int dependents = -1;  // first entry of its dependents list
  };

  // Fills the tables below for `schedule` in one pass.
  void Prepare(const IterationSchedule& schedule);

  const CostModel& cost_;
  const NnModel& model_;
  const bool per_op_;
  const int queue_depth_;
  const TimeNs exec_overhead_;
  const TimeNs graph_launch_latency_;
  const double capacity_;
  std::vector<Kernel> kernels_;  // [layer * 4 + op type]

  // The prepared schedule.
  int n_ = 0;
  ScheduleDeps deps_;
  std::vector<Position> pos_;
  // Each position's same-iteration dependents in index order, repeats kept
  // (Gpu's per-kernel dependent lists), as linked lists: entry 2p + k is
  // dependency k of position p, and dependent_next_ links each entry to the
  // next one on its list (-1 at the end).
  std::vector<int> dependent_next_;
  std::vector<int> dependent_last_;  // each list's last entry, while filling
  std::vector<int> carried_;  // positions that wait on the last F_{L-1}
  std::vector<int> order_[2];  // each stream's positions, in issue order

  // The state at a barrier that the rest of a run reads (see
  // Pass::AtBarrier).
  struct Barrier {
    bool clean = false;
    TimeNs time = 0;
    EventSlots<kSlots> ahead;
    int in_flight = 0;
    size_t increments = 0;  // busy increments recorded by then
  };

  // Per-run buffers, kept for their capacity.
  std::vector<Barrier> barriers_;  // from the launch, barrier -1
  std::vector<TimeNs> iter_end_;
  std::vector<BusyIncrement> increments_;
};

// One run of a fresh executor; adds its events to SimEngine's process-wide
// tally.
TrainSimOutcome ExecuteTraining(const SingleGpuConfig& config,
                                const CostModel& cost, const NnModel& model,
                                const IterationSchedule& schedule,
                                int iterations);

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_TRAIN_SIM_H_

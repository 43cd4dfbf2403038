// Internal to the single-GPU engine: the two producers of one training
// simulation's outcome. Only src/runtime/single_gpu_engine.cc and tests
// include this header.
//
// SimulateTraining is the generic event simulation: a SimEngine driving a
// Gpu (two priority streams over a FluidProcessor) and a CpuLauncher. It is
// the only producer that emits kernel and issue trace events, and the one
// the SimValidator observes; it steps every iteration. ExecuteTraining runs
// the same closed model on an exact two-stream executor with four fixed
// event slots, steps only until a barrier repeats (src/core/schedule.h) and
// returns the same iteration ends and busy integral bit for bit (DESIGN.md
// §6.3, §9.2). SingleGpuEngine::Run uses the executor whenever no trace
// recorder and no validator is attached.

#ifndef OOBP_SRC_RUNTIME_TRAIN_SIM_H_
#define OOBP_SRC_RUNTIME_TRAIN_SIM_H_

#include <cstdint>
#include <vector>

#include "src/common/time.h"
#include "src/core/schedule.h"
#include "src/nn/cost_model.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/sim/fluid.h"
#include "src/trace/trace.h"

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
                                 int iterations, TraceRecorder* trace);

// Adds its processed events to SimEngine's process-wide tally.
TrainSimOutcome ExecuteTraining(const SingleGpuConfig& config,
                                const CostModel& cost, const NnModel& model,
                                const IterationSchedule& schedule,
                                int iterations);

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_TRAIN_SIM_H_

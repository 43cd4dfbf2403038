// Internal to the single-GPU engine: the two producers of one training
// simulation's outcome. Only src/runtime/single_gpu_engine.cc and tests
// include this header.
//
// SimulateTraining is the generic event simulation: a SimEngine driving a
// Gpu (two priority streams over a FluidProcessor) and a CpuLauncher. It is
// the only producer that emits kernel and issue trace events, and the one
// the SimValidator observes. ExecuteTraining runs the same closed model on
// an exact two-stream executor with four fixed event slots and returns the
// same outcome bit for bit (DESIGN.md §6.3). SingleGpuEngine::Run uses the
// executor whenever no trace recorder and no validator is attached.

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
// `item_start` / `item_done` / `increments` are filled only for recorded
// (replay-candidate) runs; item index = iteration * ops_per_iter + position.
struct TrainSimOutcome {
  std::vector<TimeNs> iter_end;
  double busy_integral = 0.0;
  std::vector<TimeNs> item_start;
  std::vector<TimeNs> item_done;
  std::vector<BusyIncrement> increments;
  uint64_t events = 0;  // simulation events processed
};

TrainSimOutcome SimulateTraining(const SingleGpuConfig& config,
                                 const CostModel& cost, const NnModel& model,
                                 const IterationSchedule& schedule,
                                 int iterations, TraceRecorder* trace,
                                 bool record);

// Adds its processed events to SimEngine's process-wide tally, so event
// counts read the same whichever producer ran.
TrainSimOutcome ExecuteTraining(const SingleGpuConfig& config,
                                const CostModel& cost, const NnModel& model,
                                const IterationSchedule& schedule,
                                int iterations, bool record);

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_TRAIN_SIM_H_

// Schedule representations produced by the ooo-backprop schedulers and
// consumed by the runtime engines.
//
// A single-GPU iteration schedule is a CPU issue order over training ops,
// each tagged with the GPU stream it runs on (0 = high-priority main stream
// for forward and output-gradient computations, 1 = sub stream for weight
// gradients and updates; Section 4.1) and an optional event dependency that
// pins a sub-stream op to the scheduling region the joint scheduler chose
// for it (the op may not start before the first main-stream op of that
// region starts).
//
// Data dependencies (the dO chain, dW_i -> dO_{i+1}, U_i -> dW_i,
// F_i -> U_i and F_{i-1}) are NOT stored here: they are intrinsic to the
// training graph, IterationDeps derives them from the issue order, and the
// engines always enforce them, so a buggy scheduler can only produce a slow
// schedule, never an incorrect execution.

#ifndef OOBP_SRC_CORE_SCHEDULE_H_
#define OOBP_SRC_CORE_SCHEDULE_H_

#include <string>
#include <vector>

#include "src/nn/train_graph.h"

namespace oobp {

inline constexpr int kMainStream = 0;
inline constexpr int kSubStream = 1;

struct ScheduledOp {
  TrainOp op;
  int stream = kMainStream;
  // Index (into IterationSchedule::ops) of a main-stream op this op must not
  // start before; -1 for none. Implemented as a stream-wait event.
  int wait_for_index = -1;
};

struct IterationSchedule {
  std::vector<ScheduledOp> ops;  // CPU issue order

  // The merged order approximating completion order (issue order), used by
  // the memory model.
  std::vector<TrainOp> MergedOrder() const;
  std::string ToString() const;
};

// The conventional single-stream schedule: backprop in reverse layout order,
// updates right after each dW, then the forward pass.
IterationSchedule ConventionalIteration(const TrainGraph& graph);

// The data dependencies of one schedule position inside its iteration.
struct OpDeps {
  // Earlier positions of the same iteration the op waits on, in wait order;
  // -1 marks an unused entry.
  int dep[2] = {-1, -1};
  // The op also waits on the previous iteration's F_{L-1} (the loss
  // gradient): dO_{L-1} and dW_{L-1}. That wait comes before `dep`.
  bool prev_fwd = false;
};

struct ScheduleDeps {
  std::vector<OpDeps> ops;  // one entry per position of the schedule
  int last_fwd = -1;        // position of F_{L-1}; -1 if the schedule has none
};

// The issue-dependency rule, the one copy every consumer shares: the
// single-GPU event path and the serving co-run unroll it over iterations
// (BuildTrainIssuePlan); the single-GPU executor, which also scores the
// search's candidates, reads it per position. Each op waits on the latest
// earlier op of the same iteration that produces its input: F_i on F_{i-1}
// and U_i, dO_i on dO_{i+1}, dW_i on dO_{i+1} and on its `wait_for_index`
// op, U_i on dW_i.
// A dW before the dO it consumes, a U before its dW, a `wait_for_index` that
// does not point earlier and a layer outside [0, num_layers) fail a check.
//
// The barrier rule, which the single-GPU executor
// (src/runtime/single_gpu_engine.cc) applies: every
// op of iteration t+1 waits on F_{L-1} of iteration t, directly (dO_{L-1},
// dW_{L-1}) or through the dO chain and each U before its F. So F_{L-1}(t)'s
// completion is a barrier. Call it clean when every op of iterations <= t
// has completed by then, no op of a later iteration has begun, and a per-op
// launcher still has ops to issue: the rest of the run then depends only on
// what is pending at the barrier, seen from the barrier, and on ops that
// repeat every iteration. Two clean barriers a < b (the launch counts as
// barrier -1) that hold the same pending state make every later iteration
// a copy of the one b - a before it, shifted by the time between them, and
// a run that ends at a clean barrier does not see its end. The data-parallel
// and pipeline executors apply the same rule at their own iteration
// boundaries (DESIGN.md §9.2). On the zoo models
// every barrier is clean: a precompiled run repeats the launch at barrier
// 0, and a per-op run repeats barrier 0 at barrier 1.
ScheduleDeps IterationDeps(const IterationSchedule& schedule, int num_layers);

}  // namespace oobp

#endif  // OOBP_SRC_CORE_SCHEDULE_H_

// Single-GPU training engine (Section 4 / Figure 7 systems).
//
// Executes an IterationSchedule on the simulated GPU through the simulated
// framework executor. The four evaluated configurations map to flags:
//   XLA baseline      — per-op issue, single stream (conventional schedule)
//   XLA + Opt1        — pre-compiled kernel issue (CUDA-Graph-style)
//   XLA + Opt1 + Opt2 — pre-compiled issue + multi-stream ooo schedule
//   Nimble            — PyTorchNimble profile, pre-compiled issue, single
//                       stream, high allocator overhead (OOMs first)
//
// The engine always enforces the true data dependencies of training
// (Section 2's constraint system), so any schedule — however reordered —
// executes correctly; scheduling only changes timing.

#ifndef OOBP_SRC_RUNTIME_SINGLE_GPU_ENGINE_H_
#define OOBP_SRC_RUNTIME_SINGLE_GPU_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/core/schedule.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/train_graph.h"
#include "src/runtime/metrics.h"
#include "src/trace/trace.h"

namespace oobp {

struct SingleGpuConfig {
  GpuSpec gpu;
  SystemProfile profile;
  bool precompiled_issue = false;  // Opt1
  // Steady-state window after 1 warm-up. The executor steps until a
  // barrier repeats (src/core/schedule.h): one iteration for precompiled
  // issue, two for per-op issue once the launcher's lead settles, however
  // long the window. The rest follow by arithmetic, bit-identical to
  // simulating them (DESIGN.md §9.2).
  int measured_iterations = 3;
};

// The "simple" multi-stream variant: weight gradients and updates moved to
// the sub stream in conventional order, without joint scheduling — the
// pragmatic mode the paper reports at 1.39x (vs 1.54x with reordering) for
// DenseNet-121.
IterationSchedule NaiveSubStreamIteration(const TrainGraph& graph);

// The CPU issue sequence for `iterations` repetitions of an iteration
// schedule: IterationDeps (src/core/schedule.h) unrolled over iterations,
// so dO_{L-1} of iteration t also waits on F_{L-1} of iteration t-1.
// Shared between SingleGpuEngine and the serving subsystem's co-run engine,
// which interleaves inference kernels with the same training item stream.
struct TrainIssuePlan {
  std::vector<IssueItem> items;
  // Index of the last issue item of each iteration (size == iterations).
  std::vector<int> iter_last_item;
};

// Items carry labels only in an observed run (src/hw/observer.h).
TrainIssuePlan BuildTrainIssuePlan(const NnModel& model,
                                   const IterationSchedule& schedule,
                                   const CostModel& cost, int iterations,
                                   StreamId main_stream, StreamId sub_stream);

// Per-iteration completion times: iteration t ends when the last kernel of
// any item in (iter_last_item[t-1], iter_last_item[t]] completes.
// `item_kernel` maps issue-item index -> KernelId (all must be done).
std::vector<TimeNs> TrainIterationEndTimes(
    const Gpu& gpu, const std::vector<KernelId>& item_kernel,
    const std::vector<int>& iter_last_item);

class SingleGpuEngine {
 public:
  explicit SingleGpuEngine(SingleGpuConfig config);

  // Simulates warm-up + measured iterations of `schedule` over `model` and
  // returns steady-state metrics. `trace`, when not null, is subscribed to
  // the observer list for the call and receives kernel and issue events:
  // track 0 = main stream, 1 = sub stream, 100 = CPU issue thread. An
  // unobserved run takes the exact two-stream executor, which stops at a
  // repeated barrier; an observed one takes the event path, which simulates
  // every iteration (same metrics, bit for bit; src/hw/observer.h, DESIGN.md
  // §6.3, §9.2). `replay_stats` (optional) says which path ran and how many
  // iterations it stepped. An empty schedule is a check failure.
  TrainMetrics Run(const NnModel& model, const IterationSchedule& schedule,
                   TraceRecorder* trace = nullptr,
                   ReplayStats* replay_stats = nullptr) const;

  const SingleGpuConfig& config() const { return config_; }

 private:
  SingleGpuConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_SINGLE_GPU_ENGINE_H_

// Pipeline-parallel training engine (Section 5.2 / Figures 5, 6, 11-13).
//
// Each GPU executes serially; ops become ready when their inputs arrive
// (activations travel down, gradients travel up, over per-pair links). The
// engine is a per-GPU list scheduler: among READY ops it picks the highest
// priority one, which is exactly how the paper frames its optimization
// ("prioritizing critical operations"). The strategies differ only in layer
// assignment, priority rule, and whether weight gradients are deferred:
//
//   kGPipe     contiguous stages, forward-preferred, dW inline with dO,
//              synchronous flush per mini-batch. M = 1 degenerates to
//              cross-layer model parallelism (Figure 5a).
//   kDapple    contiguous, backward-preferred (early 1F1B), synchronous.
//   kPipeDream contiguous, backward-preferred, NO flush: iterations stream
//              through the pipe with weight stashing; the result reports
//              weight_versions = #stages (the staleness the paper warns
//              about).
//   kOooPipe1  kGPipe + gradient fast-forwarding: dO prioritized, dW ops sit
//              in a pool and fill stalls (Figure 5b / 6b).
//   kOooPipe2  kOooPipe1 + modulo layer allocation at
//              `modulo_group_size` granularity (Figure 5c / 6c).
//
// The model passed to Run() is the MICRO-batch model (its `batch` is the
// micro-batch size); a training iteration processes `num_micro_batches`
// of them, so global throughput = batch * M / iteration_time.

#ifndef OOBP_SRC_RUNTIME_PIPELINE_ENGINE_H_
#define OOBP_SRC_RUNTIME_PIPELINE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/core/modulo_alloc.h"
#include "src/hw/cluster.h"
#include "src/nn/cost_model.h"
#include "src/nn/train_graph.h"
#include "src/runtime/metrics.h"
#include "src/trace/trace.h"

namespace oobp {

enum class PipelineStrategy {
  kGPipe,
  kDapple,
  kPipeDream,
  // Megatron-2's interleaved pipeline schedule (Narayanan et al. '21):
  // each GPU owns `megatron_chunks` groups of contiguous layers
  // (backward-preferred 1F1B, synchronous). The paper notes this is
  // "similar to our modulo allocation to some extent, but without ooo
  // backprop ... very limited performance impact" (Section 9).
  kMegatron,
  // Megatron with gradient fast-forwarding grafted on — Section 8.4.2:
  // "when we solely apply gradient fast-forwarding to Megatron 2, its
  // performance is improved by average 20.4% and maximum 27.5%".
  kMegatronFF,
  kOooPipe1,
  kOooPipe2,
};

const char* PipelineStrategyName(PipelineStrategy s);

struct PipelineConfig {
  ClusterSpec cluster;
  int num_gpus = 4;
  SystemProfile profile = SystemProfile::TensorFlowXla();
  int num_micro_batches = 4;  // 1 = cross-layer model parallelism
  int modulo_group_size = 1;  // grouping granularity for kOooPipe2
  int megatron_chunks = 2;    // contiguous layer groups per GPU (kMegatron*)
  // Section 6: within the deferred weight-gradient pool, compute the first
  // k layers' gradients first (ascending) so their data-parallel
  // synchronization can start earliest. 0 disables; only affects kOooPipe*.
  int reverse_first_k = 0;
  // Optional interconnect override (Figure 11b sweeps NVLink/PCIe/10GbE);
  // when unset, links come from cluster.LinkBetween().
  bool use_link_override = false;
  LinkSpec link_override;
  // Only kPipeDream needs several. Its executor stops stepping whole
  // periods once an iteration boundary repeats an earlier one, and steps
  // the drain (DESIGN.md §9.2); the counters it extrapolates (iteration
  // ends, compute busy, link busy) are integers, so the result is exact.
  int measured_iterations = 3;
  // Paper-figure unit-time mode (the Figure 5/6 toy timelines): when > 0,
  // every F/dO/dW op takes exactly `unit_time` (no kernel overhead), weight
  // updates are free, and layer 0's dO op is omitted — the first layer
  // needs no input gradient, which is what makes the paper's conventional
  // 8-layer/2-GPU makespan 23 units rather than 24. Combine with an ideal
  // link override so transfers stay negligible against the unit.
  TimeNs unit_time = 0;
};

struct PipelineResult {
  TrainMetrics metrics;
  LayerAssignment assignment;
  int weight_versions = 1;  // >1 only for kPipeDream (weight stashing)
  std::vector<int64_t> per_gpu_peak_memory;  // activations + stashed weights
  double comm_comp_ratio = 0.0;
  // First-iteration timing per layer: when the layer's forward first starts
  // and when its last weight gradient completes (-1 for layers without
  // weights). The hybrid engine composes these with a parameter-
  // synchronization model (Section 6).
  std::vector<TimeNs> fwd_start;
  std::vector<TimeNs> wgrad_done;
};

class PipelineEngine {
 public:
  explicit PipelineEngine(PipelineConfig config);

  // `trace`, when not null, is subscribed to the observer list for the
  // call: pipeline GPU g's ops are track g, and the GPU-pair links take
  // tracks 100, 200, ... in the order they are built. An unobserved run takes an exact
  // message-level executor, which skips whole periods of a PipeDream run
  // once an iteration boundary repeats; an observed run takes the event
  // simulation, which steps every iteration. Both give the same result bit
  // for bit (src/hw/observer.h, DESIGN.md §6.3, §9.2). `replay_stats`
  // (optional) says which path ran and how many iterations it stepped.
  PipelineResult Run(const NnModel& micro_model, PipelineStrategy strategy,
                     TraceRecorder* trace = nullptr,
                     ReplayStats* replay_stats = nullptr) const;

  // The layer assignment the strategy would use (contiguous balanced by
  // forward cost, or modulo).
  LayerAssignment AssignmentFor(const NnModel& micro_model,
                                PipelineStrategy strategy) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_PIPELINE_ENGINE_H_

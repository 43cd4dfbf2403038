// Live-tensor memory accounting for backpropagation schedules.
//
// Out-of-order backprop trades memory for overlap: delaying dW_i keeps layer
// i's input activation and incoming gradient alive longer (Section 3:
// "because the weight gradient computation of a layer requires the layer's
// input and output gradient, they must be retained in memory until the
// computation is done"). This model walks a backprop op order and tracks the
// tensors live at each step:
//   * output_bytes[j] (activation of layer j) is live from backprop start
//     until dW_{j+1} completes (dO_{j+1} if layer j+1 has no weights);
//   * stash_bytes[i] (internal activations) is live until dO_i completes;
//   * the gradient flowing into layer i (size output_bytes[i]) is allocated
//     when dO_{i+1} runs (the loss gradient pre-exists) and freed once both
//     dO_i and dW_i have consumed it;
//   * a kernel's workspace is live only while it runs.
// Weights, optimizer state and gradient buffers are a schedule-independent
// base and reported separately.

#ifndef OOBP_SRC_CORE_MEMORY_MODEL_H_
#define OOBP_SRC_CORE_MEMORY_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/core/schedule.h"
#include "src/nn/train_graph.h"

namespace oobp {

struct MemoryPeak {
  int64_t base = 0;  // weights + optimizer state + gradient buffers
  int64_t peak = 0;  // max live activation bytes over the order (excl. base)

  int64_t peak_total() const { return peak + base; }
};

struct MemoryTimeline : MemoryPeak {
  // Live bytes after each op of the analyzed order (excluding `base`).
  std::vector<int64_t> usage_after;
  // Live bytes while each op runs (includes its workspace).
  std::vector<int64_t> usage_during;
  int64_t initial = 0;  // live activation bytes at backprop start
};

// `order` must be a valid backprop order (dO/dW ops only); ops of other
// types are ignored so a full-iteration merged order can be passed directly.
MemoryTimeline EstimateBackpropMemory(const NnModel& model,
                                      const std::vector<TrainOp>& order);

// The same walk, keeping only the peak and the base.
MemoryPeak EstimateBackpropPeak(const NnModel& model,
                                const std::vector<TrainOp>& order);
// The peak of a schedule's issue order (its MergedOrder), read in place.
MemoryPeak EstimateBackpropPeak(const NnModel& model,
                                const IterationSchedule& schedule);

}  // namespace oobp

#endif  // OOBP_SRC_CORE_MEMORY_MODEL_H_

#include "src/core/memory_model.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "src/common/check.h"

namespace oobp {
namespace {

const TrainOp& OpOf(const TrainOp& op) { return op; }
const TrainOp& OpOf(const ScheduledOp& s) { return s.op; }

// The walk every entry point shares. `Out` is MemoryPeak, or MemoryTimeline
// to also record each op's live bytes.
template <typename Out, typename Op>
void WalkBackprop(const NnModel& model, const std::vector<Op>& order,
                  Out* out) {
  constexpr bool kTimeline = std::is_same_v<Out, MemoryTimeline>;
  const int L = model.num_layers();
  Out& tl = *out;

  // Schedule-independent base: weights, momentum, gradient buffers.
  for (const Layer& l : model.layers) {
    tl.base += 3 * l.param_bytes;
  }

  // Per layer j: the remaining consumers of its output activation (layer
  // j+1's dW; -1 once freed) and of the gradient into it (dO_j + dW_j),
  // whether that gradient is allocated, and whether its stash is live.
  struct LayerState {
    int8_t act_consumers = 0;
    int8_t grad_consumers = 0;
    bool grad_alloc = false;
    bool stash_live = false;
  };
  std::vector<LayerState> state(static_cast<size_t>(L));

  int64_t live = 0;
  for (int j = 0; j < L; ++j) {
    live += model.layers[j].output_bytes + model.layers[j].stash_bytes;
    state[j].stash_live = true;
    if (j + 1 < L) {
      state[j].act_consumers = model.layers[j + 1].has_params() ? 1 : 0;
    }
    state[j].grad_consumers = 1 + (model.layers[j].has_params() ? 1 : 0);
  }
  // The loss gradient (into the top layer) pre-exists at backprop start.
  if (L > 0) {
    live += model.layers[L - 1].output_bytes;
    state[L - 1].grad_alloc = true;
  }
  if constexpr (kTimeline) {
    tl.initial = live;
  }
  tl.peak = live;

  auto free_activation = [&](int j) {
    if (j >= 0 && j < L) {
      live -= model.layers[j].output_bytes;
    }
  };
  auto consume_grad = [&](int i) {
    OOBP_CHECK_GT(state[i].grad_consumers, 0);
    if (--state[i].grad_consumers == 0 && state[i].grad_alloc) {
      live -= model.layers[i].output_bytes;  // gradient buffer size
    }
  };

  for (const Op& entry : order) {
    const TrainOp& op = OpOf(entry);
    if (op.type != TrainOpType::kOutputGrad &&
        op.type != TrainOpType::kWeightGrad) {
      if constexpr (kTimeline) {
        tl.usage_during.push_back(live);
        tl.usage_after.push_back(live);
      }
      continue;
    }
    const int i = op.layer;
    OOBP_CHECK_GE(i, 0);
    OOBP_CHECK_LT(i, L);
    const Layer& layer = model.layers[i];

    if (op.type == TrainOpType::kOutputGrad) {
      // Produces the gradient into layer i-1.
      if (i > 0 && !state[i - 1].grad_alloc) {
        live += model.layers[i - 1].output_bytes;
        state[i - 1].grad_alloc = true;
      }
      const int64_t during = live + layer.workspace_bytes;
      tl.peak = std::max(tl.peak, during);
      if constexpr (kTimeline) {
        tl.usage_during.push_back(during);
      }
      // Frees: this layer's stash, and the incoming gradient if dW already ran
      // (or does not exist).
      if (state[i].stash_live) {
        live -= layer.stash_bytes;
        state[i].stash_live = false;
      }
      consume_grad(i);
      // A parameter-free layer also releases its input activation here.
      if (i > 0 && state[i - 1].act_consumers == 0) {
        free_activation(i - 1);
        state[i - 1].act_consumers = -1;  // freed
      }
      // The network's final output is only needed by the loss computation,
      // which already ran; the top layer's dO releases it.
      if (i == L - 1) {
        free_activation(L - 1);
      }
    } else {  // kWeightGrad
      const int64_t during = live + layer.workspace_bytes;
      tl.peak = std::max(tl.peak, during);
      if constexpr (kTimeline) {
        tl.usage_during.push_back(during);
      }
      consume_grad(i);
      if (i > 0) {
        OOBP_CHECK_EQ(state[i - 1].act_consumers, 1)
            << "dW[" << i << "] scheduled twice or input already freed";
        free_activation(i - 1);
        state[i - 1].act_consumers = -1;
      }
    }
    if constexpr (kTimeline) {
      tl.usage_after.push_back(live);
    }
  }
}

}  // namespace

MemoryTimeline EstimateBackpropMemory(const NnModel& model,
                                      const std::vector<TrainOp>& order) {
  MemoryTimeline tl;
  tl.usage_after.reserve(order.size());
  tl.usage_during.reserve(order.size());
  WalkBackprop(model, order, &tl);
  return tl;
}

MemoryPeak EstimateBackpropPeak(const NnModel& model,
                                const std::vector<TrainOp>& order) {
  MemoryPeak out;
  WalkBackprop(model, order, &out);
  return out;
}

MemoryPeak EstimateBackpropPeak(const NnModel& model,
                                const IterationSchedule& schedule) {
  MemoryPeak out;
  WalkBackprop(model, schedule.ops, &out);
  return out;
}

}  // namespace oobp

#include "src/core/memory_model.h"

#include <algorithm>

#include "src/common/check.h"

namespace oobp {

MemoryTimeline EstimateBackpropMemory(const NnModel& model,
                                      const std::vector<TrainOp>& order) {
  const int L = model.num_layers();
  MemoryTimeline tl;
  tl.usage_after.reserve(order.size());
  tl.usage_during.reserve(order.size());

  // Schedule-independent base: weights, momentum, gradient buffers.
  for (const Layer& l : model.layers) {
    tl.base += 3 * l.param_bytes;
  }

  // Remaining consumers of each activation output (layer j's output feeds
  // layer j+1's dW) and of each incoming gradient (dO_i + dW_i).
  std::vector<int> act_consumers(L, 0);   // for output_bytes[j]
  std::vector<int> grad_consumers(L, 0);  // for gradient into layer i
  std::vector<bool> grad_alloc(L, false);
  std::vector<bool> stash_live(L, false);

  int64_t live = 0;
  for (int j = 0; j < L; ++j) {
    live += model.layers[j].output_bytes + model.layers[j].stash_bytes;
    stash_live[j] = true;
    if (j + 1 < L) {
      act_consumers[j] = model.layers[j + 1].has_params() ? 1 : 0;
    }
    grad_consumers[j] = 1 + (model.layers[j].has_params() ? 1 : 0);
  }
  // The loss gradient (into the top layer) pre-exists at backprop start.
  if (L > 0) {
    live += model.layers[L - 1].output_bytes;
    grad_alloc[L - 1] = true;
  }
  tl.initial = live;
  tl.peak = live;

  auto free_activation = [&](int j) {
    if (j >= 0 && j < L) {
      live -= model.layers[j].output_bytes;
    }
  };
  auto consume_grad = [&](int i) {
    OOBP_CHECK_GT(grad_consumers[i], 0);
    if (--grad_consumers[i] == 0 && grad_alloc[i]) {
      live -= model.layers[i].output_bytes;  // gradient buffer size
    }
  };

  for (const TrainOp& op : order) {
    if (op.type != TrainOpType::kOutputGrad &&
        op.type != TrainOpType::kWeightGrad) {
      tl.usage_during.push_back(live);
      tl.usage_after.push_back(live);
      continue;
    }
    const int i = op.layer;
    OOBP_CHECK_GE(i, 0);
    OOBP_CHECK_LT(i, L);
    const Layer& layer = model.layers[i];

    if (op.type == TrainOpType::kOutputGrad) {
      // Produces the gradient into layer i-1.
      if (i > 0 && !grad_alloc[i - 1]) {
        live += model.layers[i - 1].output_bytes;
        grad_alloc[i - 1] = true;
      }
      tl.usage_during.push_back(live + layer.workspace_bytes);
      // Frees: this layer's stash, and the incoming gradient if dW already ran
      // (or does not exist).
      if (stash_live[i]) {
        live -= layer.stash_bytes;
        stash_live[i] = false;
      }
      consume_grad(i);
      // A parameter-free layer also releases its input activation here.
      if (i > 0 && act_consumers[i - 1] == 0) {
        free_activation(i - 1);
        act_consumers[i - 1] = -1;  // freed
      }
      // The network's final output is only needed by the loss computation,
      // which already ran; the top layer's dO releases it.
      if (i == L - 1) {
        free_activation(L - 1);
      }
    } else {  // kWeightGrad
      tl.usage_during.push_back(live + layer.workspace_bytes);
      consume_grad(i);
      if (i > 0) {
        OOBP_CHECK_EQ(act_consumers[i - 1], 1)
            << "dW[" << i << "] scheduled twice or input already freed";
        act_consumers[i - 1] = 0;
        free_activation(i - 1);
        act_consumers[i - 1] = -1;
      }
    }
    tl.usage_after.push_back(live);
    tl.peak = std::max(tl.peak, tl.usage_during.back());
  }
  return tl;
}

}  // namespace oobp

#include "src/core/reverse_k.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/memory_model.h"

namespace oobp {

namespace {

// Algorithm 2 lines 3-6 for a given (already clamped) k.
std::vector<TrainOp> BuildOrder(const TrainGraph& graph, int k) {
  std::vector<TrainOp> order;
  const int L = graph.num_layers();
  for (int i = L - 1; i >= 0; --i) {
    order.push_back({TrainOpType::kOutputGrad, i});
    if (i >= k && graph.HasWgrad(i)) {
      order.push_back({TrainOpType::kWeightGrad, i});
    }
  }
  for (int i = 0; i < k; ++i) {
    if (graph.HasWgrad(i)) {
      order.push_back({TrainOpType::kWeightGrad, i});
    }
  }
  return order;
}

}  // namespace

ReverseFirstKResult ReverseFirstK(const TrainGraph& graph, int k,
                                  int64_t memory_cap_bytes) {
  const int L = graph.num_layers();
  OOBP_CHECK_GE(k, 0);
  k = std::min(k, L);

  ReverseFirstKResult result;
  if (memory_cap_bytes >= 0) {
    // Lines 1-2: max_k = arg max_j f(j) s.t. f(j) < MXM, where f(j) is the
    // peak memory of the order that defers the first j weight gradients.
    // f(j) is monotone in j, so the largest feasible j is found by scanning
    // down from the requested k.
    while (k > 0) {
      const MemoryPeak mem =
          EstimateBackpropPeak(graph.model(), BuildOrder(graph, k));
      if (mem.peak < memory_cap_bytes) {
        break;
      }
      --k;
    }
  }

  result.order = BuildOrder(graph, k);
  result.effective_k = k;
  result.peak_memory =
      EstimateBackpropPeak(graph.model(), result.order).peak;
  OOBP_CHECK(graph.ValidateBackpropOrder(result.order));
  return result;
}

}  // namespace oobp

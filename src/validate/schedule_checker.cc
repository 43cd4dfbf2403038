#include "src/validate/schedule_checker.h"

#include <algorithm>

#include "src/common/str_util.h"

namespace oobp {

namespace {

// Records the position of each (type, layer) op; duplicates are errors.
struct OpPositions {
  std::vector<int> fwd, dgrad, wgrad, update;

  explicit OpPositions(int num_layers)
      : fwd(num_layers, -1),
        dgrad(num_layers, -1),
        wgrad(num_layers, -1),
        update(num_layers, -1) {}

  std::vector<int>* Slot(TrainOpType type) {
    switch (type) {
      case TrainOpType::kForward:
        return &fwd;
      case TrainOpType::kOutputGrad:
        return &dgrad;
      case TrainOpType::kWeightGrad:
        return &wgrad;
      case TrainOpType::kWeightUpdate:
        return &update;
    }
    return nullptr;
  }
};

}  // namespace

std::string ScheduleCheckReport::ToString() const {
  if (ok()) {
    return "ok";
  }
  std::string out = StrFormat("%zu error(s)", errors.size());
  for (const std::string& e : errors) {
    out += "\n  ";
    out += e;
  }
  return out;
}

ScheduleCheckReport CheckIterationSchedule(const TrainGraph& graph,
                                           const IterationSchedule& schedule) {
  ScheduleCheckReport report;
  auto fail = [&report](std::string msg) {
    report.errors.push_back(std::move(msg));
  };
  const int L = graph.num_layers();
  OpPositions pos(L);

  for (size_t p = 0; p < schedule.ops.size(); ++p) {
    const ScheduledOp& s = schedule.ops[p];
    const int i = s.op.layer;
    if (i < 0 || i >= L) {
      fail(StrFormat("op %zu: layer %d out of range [0, %d)", p, i, L));
      continue;
    }
    if ((s.op.type == TrainOpType::kWeightGrad ||
         s.op.type == TrainOpType::kWeightUpdate) &&
        !graph.HasWgrad(i)) {
      fail(StrFormat("op %zu: %s[%d] for a layer without parameters", p,
                     TrainOpTypeName(s.op.type), i));
      continue;
    }
    int& slot = (*pos.Slot(s.op.type))[static_cast<size_t>(i)];
    if (slot >= 0) {
      fail(StrFormat("op %zu: duplicate %s[%d] (first at %d)", p,
                     TrainOpTypeName(s.op.type), i, slot));
      continue;
    }
    slot = static_cast<int>(p);

    const int w = s.wait_for_index;
    if (w != -1) {
      if (w < 0 || w >= static_cast<int>(p)) {
        fail(StrFormat("op %zu: wait_for_index %d does not point backwards",
                       p, w));
      } else if (schedule.ops[static_cast<size_t>(w)].stream != kMainStream) {
        fail(StrFormat("op %zu: wait_for_index %d targets a non-main-stream "
                       "op", p, w));
      }
    }
  }

  // Permutation: exactly the conventional iteration's op multiset.
  for (int i = 0; i < L; ++i) {
    if (pos.fwd[i] < 0) {
      fail(StrFormat("missing fwd[%d]", i));
    }
    if (pos.dgrad[i] < 0) {
      fail(StrFormat("missing dO[%d]", i));
    }
    if (graph.HasWgrad(i)) {
      if (pos.wgrad[i] < 0) {
        fail(StrFormat("missing dW[%d]", i));
      }
      if (pos.update[i] < 0) {
        fail(StrFormat("missing U[%d]", i));
      }
    }
  }
  if (!report.ok()) {
    return report;  // ordering checks assume every position is known
  }

  // dO strictly descending, F strictly ascending, all dO before all F.
  for (int i = 0; i + 1 < L; ++i) {
    if (pos.dgrad[i] < pos.dgrad[i + 1]) {
      fail(StrFormat("dO[%d] at %d precedes dO[%d] at %d (must be "
                     "descending)", i, pos.dgrad[i], i + 1, pos.dgrad[i + 1]));
    }
    if (pos.fwd[i] > pos.fwd[i + 1]) {
      fail(StrFormat("fwd[%d] at %d follows fwd[%d] at %d (must be "
                     "ascending)", i, pos.fwd[i], i + 1, pos.fwd[i + 1]));
    }
  }
  if (L > 0 && pos.dgrad[0] > pos.fwd[0]) {
    fail(StrFormat("dO[0] at %d follows fwd[0] at %d (backprop must precede "
                   "the next forward pass)", pos.dgrad[0], pos.fwd[0]));
  }

  for (int i = 0; i < L; ++i) {
    if (!graph.HasWgrad(i)) {
      continue;
    }
    if (i + 1 < L && pos.wgrad[i] < pos.dgrad[i + 1]) {
      fail(StrFormat("dW[%d] at %d precedes its producer dO[%d] at %d", i,
                     pos.wgrad[i], i + 1, pos.dgrad[i + 1]));
    }
    if (pos.update[i] < pos.wgrad[i]) {
      fail(StrFormat("U[%d] at %d precedes dW[%d] at %d", i, pos.update[i],
                     i, pos.wgrad[i]));
    }
    if (pos.update[i] > pos.fwd[i]) {
      fail(StrFormat("U[%d] at %d follows fwd[%d] at %d (the forward pass "
                     "needs the updated weights)", i, pos.update[i], i,
                     pos.fwd[i]));
    }
  }

  // Cross-check against the graph's own order validator.
  std::vector<TrainOp> grads;
  for (const ScheduledOp& s : schedule.ops) {
    if (s.op.type == TrainOpType::kOutputGrad ||
        s.op.type == TrainOpType::kWeightGrad) {
      grads.push_back(s.op);
    }
  }
  if (!graph.ValidateBackpropOrder(grads)) {
    fail("TrainGraph::ValidateBackpropOrder rejected the backprop "
         "subsequence");
  }
  return report;
}

ScheduleCheckReport CheckMemoryTimeline(const NnModel& model,
                                        const std::vector<TrainOp>& order,
                                        const MemoryTimeline& timeline) {
  ScheduleCheckReport report;
  auto fail = [&report](std::string msg) {
    report.errors.push_back(std::move(msg));
  };
  const int L = model.num_layers();
  const int n = static_cast<int>(order.size());

  // Positions of the backprop ops (the only alloc/free points).
  std::vector<int> pos_do(L, -1), pos_dw(L, -1);
  for (int p = 0; p < n; ++p) {
    const TrainOp& op = order[static_cast<size_t>(p)];
    if (op.layer < 0 || op.layer >= L) {
      fail(StrFormat("op %d: layer %d out of range", p, op.layer));
      return report;
    }
    std::vector<int>* slot = nullptr;
    if (op.type == TrainOpType::kOutputGrad) {
      slot = &pos_do;
    } else if (op.type == TrainOpType::kWeightGrad) {
      slot = &pos_dw;
    } else {
      continue;
    }
    if ((*slot)[static_cast<size_t>(op.layer)] >= 0) {
      fail(StrFormat("op %d: duplicate %s[%d]", p, TrainOpTypeName(op.type),
                     op.layer));
      return report;
    }
    (*slot)[static_cast<size_t>(op.layer)] = p;
  }

  // Liveness intervals, independently of the model's incremental walk. A
  // tensor allocated at position a and freed at position f occupies memory
  // during ops a..f inclusive (the freeing op still reads it) and in the
  // after-state of ops a..f-1. Pre-existing tensors have a = 0; never-freed
  // tensors have f = n.
  struct Interval {
    int alloc = 0;
    int free = 0;
    int64_t bytes = 0;
  };
  std::vector<Interval> tensors;
  auto add = [&tensors](int alloc, int free, int64_t bytes) {
    if (bytes > 0) {
      tensors.push_back({alloc, free, bytes});
    }
  };
  const auto at_or_end = [n](int p) { return p >= 0 ? p : n; };

  int64_t initial = 0;
  for (int j = 0; j < L; ++j) {
    const Layer& layer = model.layers[static_cast<size_t>(j)];
    // Activation output: live from the start; layer j+1's dW (or dO, for a
    // parameter-free successor) is the last consumer. The top layer's output
    // feeds only the loss, so its own dO releases it.
    int free = n;
    if (j + 1 < L) {
      free = model.layers[static_cast<size_t>(j + 1)].has_params()
                 ? at_or_end(pos_dw[static_cast<size_t>(j + 1)])
                 : at_or_end(pos_do[static_cast<size_t>(j + 1)]);
    } else {
      free = at_or_end(pos_do[static_cast<size_t>(j)]);
    }
    add(0, free, layer.output_bytes);
    initial += layer.output_bytes;

    // Stashed internal activations: live until the layer's dO.
    add(0, at_or_end(pos_do[static_cast<size_t>(j)]), layer.stash_bytes);
    initial += layer.stash_bytes;

    // Gradient flowing into layer j (size of its output): the loss gradient
    // pre-exists, lower gradients appear when dO_{j+1} produces them; freed
    // once both dO_j and (if the layer has weights) dW_j consumed it.
    const bool preexists = j + 1 >= L;  // only the loss gradient
    const int alloc =
        preexists ? 0 : at_or_end(pos_do[static_cast<size_t>(j + 1)]);
    int last_use = at_or_end(pos_do[static_cast<size_t>(j)]);
    if (layer.has_params()) {
      last_use = std::max(last_use, at_or_end(pos_dw[static_cast<size_t>(j)]));
    }
    add(alloc, last_use, layer.output_bytes);
    if (preexists) {
      initial += layer.output_bytes;
    }
  }

  int64_t base = 0;
  for (const Layer& layer : model.layers) {
    base += 3 * layer.param_bytes;
  }

  int64_t peak = initial;
  std::vector<int64_t> during(static_cast<size_t>(n), 0);
  std::vector<int64_t> after(static_cast<size_t>(n), 0);
  for (const Interval& t : tensors) {
    for (int p = t.alloc; p <= t.free && p < n; ++p) {
      during[static_cast<size_t>(p)] += t.bytes;
      if (p < t.free) {
        after[static_cast<size_t>(p)] += t.bytes;
      }
    }
  }
  for (int p = 0; p < n; ++p) {
    const TrainOp& op = order[static_cast<size_t>(p)];
    if (op.type == TrainOpType::kOutputGrad ||
        op.type == TrainOpType::kWeightGrad) {
      during[static_cast<size_t>(p)] +=
          model.layers[static_cast<size_t>(op.layer)].workspace_bytes;
      peak = std::max(peak, during[static_cast<size_t>(p)]);
    }
  }

  // Exact comparison: the reference and the model use the same integer
  // arithmetic, so any difference is a real disagreement.
  if (timeline.initial != initial) {
    fail(StrFormat("initial: model %lld, reference %lld",
                   static_cast<long long>(timeline.initial),
                   static_cast<long long>(initial)));
  }
  if (timeline.base != base) {
    fail(StrFormat("base: model %lld, reference %lld",
                   static_cast<long long>(timeline.base),
                   static_cast<long long>(base)));
  }
  if (timeline.peak != peak) {
    fail(StrFormat("peak: model %lld, reference %lld",
                   static_cast<long long>(timeline.peak),
                   static_cast<long long>(peak)));
  }
  if (static_cast<int>(timeline.usage_during.size()) != n ||
      static_cast<int>(timeline.usage_after.size()) != n) {
    fail(StrFormat("timeline length: model %zu/%zu, reference %d",
                   timeline.usage_during.size(), timeline.usage_after.size(),
                   n));
    return report;
  }
  for (int p = 0; p < n; ++p) {
    if (timeline.usage_during[static_cast<size_t>(p)] !=
        during[static_cast<size_t>(p)]) {
      fail(StrFormat("usage_during[%d] (%s[%d]): model %lld, reference %lld",
                     p, TrainOpTypeName(order[static_cast<size_t>(p)].type),
                     order[static_cast<size_t>(p)].layer,
                     static_cast<long long>(
                         timeline.usage_during[static_cast<size_t>(p)]),
                     static_cast<long long>(during[static_cast<size_t>(p)])));
    }
    if (timeline.usage_after[static_cast<size_t>(p)] !=
        after[static_cast<size_t>(p)]) {
      fail(StrFormat("usage_after[%d] (%s[%d]): model %lld, reference %lld",
                     p, TrainOpTypeName(order[static_cast<size_t>(p)].type),
                     order[static_cast<size_t>(p)].layer,
                     static_cast<long long>(
                         timeline.usage_after[static_cast<size_t>(p)]),
                     static_cast<long long>(after[static_cast<size_t>(p)])));
    }
    if (static_cast<int>(report.errors.size()) > 16) {
      fail("... further timeline mismatches suppressed");
      break;
    }
  }
  return report;
}

}  // namespace oobp

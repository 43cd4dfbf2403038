#include "src/core/schedule.h"

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace oobp {

ScheduleDeps IterationDeps(const IterationSchedule& schedule,
                           int num_layers) {
  const int L = num_layers;
  const size_t n = schedule.ops.size();
  ScheduleDeps out;
  out.ops.resize(n);
  // Latest position of each layer's F / dO / dW / U seen so far.
  std::vector<int> fwd(L, -1), dgrad(L, -1), wgrad(L, -1), update(L, -1);
  for (size_t p = 0; p < n; ++p) {
    const ScheduledOp& s = schedule.ops[p];
    const int i = s.op.layer;
    OOBP_CHECK_GE(i, 0);
    OOBP_CHECK_LT(i, L);
    OpDeps& d = out.ops[p];
    int num_deps = 0;
    const auto add_dep = [&](int q) { d.dep[num_deps++] = q; };
    switch (s.op.type) {
      case TrainOpType::kForward:
        if (i > 0 && fwd[i - 1] != -1) {
          add_dep(fwd[i - 1]);
        }
        if (update[i] != -1) {
          add_dep(update[i]);
        }
        fwd[i] = static_cast<int>(p);
        break;
      case TrainOpType::kOutputGrad:
        if (i + 1 < L) {
          if (dgrad[i + 1] != -1) {
            add_dep(dgrad[i + 1]);
          }
        } else {
          d.prev_fwd = true;
        }
        dgrad[i] = static_cast<int>(p);
        break;
      case TrainOpType::kWeightGrad:
        if (i + 1 < L) {
          OOBP_CHECK_NE(dgrad[i + 1], -1)
              << "dW[" << i << "] issued before dO[" << i + 1 << "]";
          add_dep(dgrad[i + 1]);
        } else {
          d.prev_fwd = true;
        }
        if (s.wait_for_index >= 0) {
          OOBP_CHECK_LT(s.wait_for_index, static_cast<int>(p));
          add_dep(s.wait_for_index);
        }
        wgrad[i] = static_cast<int>(p);
        break;
      case TrainOpType::kWeightUpdate:
        OOBP_CHECK_NE(wgrad[i], -1)
            << "U[" << i << "] issued before dW[" << i << "]";
        add_dep(wgrad[i]);
        update[i] = static_cast<int>(p);
        break;
    }
  }
  if (L > 0) {
    out.last_fwd = fwd[L - 1];
  }
  return out;
}

std::vector<TrainOp> IterationSchedule::MergedOrder() const {
  std::vector<TrainOp> out;
  out.reserve(ops.size());
  for (const ScheduledOp& s : ops) {
    out.push_back(s.op);
  }
  return out;
}

std::string IterationSchedule::ToString() const {
  std::vector<std::string> parts;
  for (const ScheduledOp& s : ops) {
    parts.push_back(StrFormat("%s%s[%d]", s.stream == kSubStream ? "*" : "",
                              TrainOpTypeName(s.op.type), s.op.layer));
  }
  return Join(parts, " ");
}

IterationSchedule ConventionalIteration(const TrainGraph& graph) {
  IterationSchedule sched;
  for (const TrainOp& op : graph.ConventionalBackprop()) {
    sched.ops.push_back({op, kMainStream, -1});
    if (op.type == TrainOpType::kWeightGrad) {
      sched.ops.push_back(
          {{TrainOpType::kWeightUpdate, op.layer}, kMainStream, -1});
    }
  }
  for (const TrainOp& op : graph.Forward()) {
    sched.ops.push_back({op, kMainStream, -1});
  }
  return sched;
}

}  // namespace oobp

#include "src/runtime/cluster_ps_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/hw/gpu.h"
#include "src/hw/link.h"
#include "src/hw/observer.h"
#include "src/sim/engine.h"

namespace oobp {

namespace {

struct OpRef {
  TrainOpType type;  // forward, output or weight gradient
  int layer;
};

// One iteration's op order. Conventional backprop interleaves weight and
// output gradients top-down, so the lowest layers' gradients — the ones the
// next forward pass needs back first — are both computed and pushed last.
// Reverse-first-k keeps the interleaved sweep for layers >= k (their pushes
// start early and overlap the backward pass) but defers the first k layers'
// weight gradients: the output-gradient chain runs to the bottom first,
// then wg_0..wg_{k-1} execute bottom-up, entering the priority links in
// urgency order. wg_l depends only on og_{l+1}, so both orders are valid
// schedules of the same dataflow.
std::vector<OpRef> BuildProgram(const NnModel& model, bool ooo,
                                int reverse_k) {
  const int layers = static_cast<int>(model.layers.size());
  const int k = ooo ? std::min(reverse_k, layers) : 0;
  std::vector<OpRef> program;
  program.reserve(static_cast<size_t>(3 * layers));
  for (int l = 0; l < layers; ++l) {
    program.push_back({TrainOpType::kForward, l});
  }
  for (int l = layers - 1; l >= k; --l) {
    if (model.layers[static_cast<size_t>(l)].has_params()) {
      program.push_back({TrainOpType::kWeightGrad, l});
    }
    if (l >= 1) {
      program.push_back({TrainOpType::kOutputGrad, l});
    }
  }
  for (int l = k - 1; l >= 1; --l) {
    program.push_back({TrainOpType::kOutputGrad, l});
  }
  for (int l = 0; l < k; ++l) {
    if (model.layers[static_cast<size_t>(l)].has_params()) {
      program.push_back({TrainOpType::kWeightGrad, l});
    }
  }
  return program;
}

}  // namespace

ClusterPsEngine::ClusterPsEngine(ClusterPsConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GE(config_.workers, 1);
  OOBP_CHECK_GE(config_.iterations, 2);
  OOBP_CHECK_GE(config_.straggler_spread, 0.0);
  OOBP_CHECK_GT(config_.server_agg_gbps, 0.0);
}

ClusterPsMetrics ClusterPsEngine::Run(const NnModel& model) const {
  const CostModel cost(config_.gpu, config_.profile);
  const int W = config_.workers;
  const int T = config_.iterations;
  const int layers = static_cast<int>(model.layers.size());
  const int reverse_k =
      config_.reverse_k < 0 ? layers / 3 : config_.reverse_k;
  const std::vector<OpRef> program =
      BuildProgram(model, config_.ooo, reverse_k);

  int param_layers = 0;
  for (const Layer& layer : model.layers) {
    param_layers += layer.has_params() ? 1 : 0;
  }
  OOBP_CHECK_GT(param_layers, 0);

  // Per-op base costs, shared by all workers (stragglers scale them).
  std::vector<KernelCost> fwd_cost(static_cast<size_t>(layers));
  std::vector<KernelCost> og_cost(static_cast<size_t>(layers));
  std::vector<KernelCost> wg_cost(static_cast<size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const Layer& layer = model.layers[static_cast<size_t>(l)];
    fwd_cost[static_cast<size_t>(l)] = cost.Cost(layer, TrainOpType::kForward);
    og_cost[static_cast<size_t>(l)] =
        cost.Cost(layer, TrainOpType::kOutputGrad);
    if (layer.has_params()) {
      wg_cost[static_cast<size_t>(l)] =
          cost.Cost(layer, TrainOpType::kWeightGrad);
    }
  }
  auto base_cost = [&](const OpRef& op) -> const KernelCost& {
    switch (op.type) {
      case TrainOpType::kForward:
        return fwd_cost[static_cast<size_t>(op.layer)];
      case TrainOpType::kOutputGrad:
        return og_cost[static_cast<size_t>(op.layer)];
      default:
        return wg_cost[static_cast<size_t>(op.layer)];
    }
  };
  // Conventional pushes are FIFO (uniform priority); ooo gives lower layers
  // higher priority on the preemptive links (reverse-first-k semantics).
  auto push_priority = [&](int l) { return config_.ooo ? l : 0; };
  auto agg_ns = [&](int64_t bytes) {
    return config_.server_agg_fixed +
           static_cast<TimeNs>(std::llround(
               static_cast<double>(bytes) * W / config_.server_agg_gbps));
  };

  // Every worker GPU, the server and all links share one engine.
  SimEngine engine;
  const bool labels = RunIsObserved();  // names only feed observers

  struct Worker {
    std::unique_ptr<Gpu> gpu;
    StreamId stream = 0;
    double factor = 1.0;
    int iter = 0;
    size_t pc = 0;
    KernelId outstanding = -1;
    std::vector<std::vector<char>> upd_ready;  // [iteration][layer]
    std::vector<int> upd_count;                // received updates, per iter
    std::vector<TimeNs> upd_done;              // all updates in, per iter
    TimeNs wait_since = -1;
    TimeNs stall = 0;
  };
  std::vector<Worker> workers(static_cast<size_t>(W));
  std::vector<std::unique_ptr<Link>> up;    // worker -> server
  std::vector<std::unique_ptr<Link>> down;  // server -> worker
  int64_t bytes_pushed = 0;
  // arrived[t][l]: gradient copies at the server for (iteration, layer).
  std::vector<std::vector<int>> arrived(
      static_cast<size_t>(T), std::vector<int>(static_cast<size_t>(layers)));

  for (int w = 0; w < W; ++w) {
    Worker& wk = workers[static_cast<size_t>(w)];
    wk.gpu = std::make_unique<Gpu>(&engine, config_.gpu);
    wk.stream = wk.gpu->CreateStream(/*priority=*/0);
    wk.factor = 1.0 + config_.straggler_spread *
                          Rng(config_.straggler_seed +
                              static_cast<uint64_t>(w))
                              .NextDouble();
    wk.upd_ready.assign(static_cast<size_t>(T),
                        std::vector<char>(static_cast<size_t>(layers), 0));
    wk.upd_count.assign(static_cast<size_t>(T), 0);
    wk.upd_done.assign(static_cast<size_t>(T), -1);
    up.push_back(std::make_unique<Link>(&engine, config_.uplink));
    down.push_back(std::make_unique<Link>(&engine, config_.downlink));
  }

  // try_issue runs from worker w's kernel-done listener or an update
  // delivery and touches only that worker's state.
  std::function<void(int)> try_issue = [&](int w) {
    Worker& wk = workers[static_cast<size_t>(w)];
    if (wk.iter >= T || wk.outstanding >= 0) {
      return;
    }
    const OpRef& op = program[wk.pc];
    const Layer& layer = model.layers[static_cast<size_t>(op.layer)];
    if (op.type == TrainOpType::kForward && wk.iter > 0 && layer.has_params() &&
        wk.upd_ready[static_cast<size_t>(wk.iter - 1)]
                    [static_cast<size_t>(op.layer)] == 0) {
      if (wk.wait_since < 0) {
        wk.wait_since = engine.now();  // forward blocked on a parameter update
      }
      return;
    }
    if (wk.wait_since >= 0) {
      wk.stall += engine.now() - wk.wait_since;
      wk.wait_since = -1;
    }
    const KernelCost& base = base_cost(op);
    KernelDesc desc;
    if (labels) {
      desc.name = StrFormat("%s[%d]#%d", TrainOpTypeName(op.type), op.layer,
                            wk.iter);
      desc.category = TrainOpTypeName(op.type);
    }
    desc.solo_duration = static_cast<TimeNs>(
        std::llround(static_cast<double>(base.duration) * wk.factor));
    desc.thread_blocks = base.thread_blocks;
    wk.outstanding = wk.gpu->Enqueue(wk.stream, std::move(desc));
  };

  // Worker w receives the update of (t, l); forward of layer l in
  // iteration t + 1 may now issue.
  auto on_update = [&](int w, int t, int l) {
    Worker& wk = workers[static_cast<size_t>(w)];
    wk.upd_ready[static_cast<size_t>(t)][static_cast<size_t>(l)] = 1;
    if (++wk.upd_count[static_cast<size_t>(t)] == param_layers) {
      wk.upd_done[static_cast<size_t>(t)] = engine.now();
    }
    try_issue(w);
  };

  // Server-side aggregation: once all W copies of (t, l) arrive, pay the
  // reduction cost and broadcast the update. Every finished transfer, up or
  // down, schedules its delivery as an event of its own at the completion
  // time, so each delivery counts once in processed_events.
  std::function<void(int, int)> on_grad = [&](int t, int l) {
    if (++arrived[static_cast<size_t>(t)][static_cast<size_t>(l)] != W) {
      return;
    }
    const int64_t bytes =
        model.layers[static_cast<size_t>(l)].param_bytes;
    engine.ScheduleAfter(agg_ns(bytes), [&, t, l, bytes] {
      for (int w = 0; w < W; ++w) {
        down[static_cast<size_t>(w)]->Transfer(
            bytes, push_priority(l),
            labels ? StrFormat("pull[%d]#%d", l, t) : std::string(),
            [&, w, t, l] {
              engine.ScheduleAt(engine.now(),
                                [&, w, t, l] { on_update(w, t, l); });
            });
      }
    });
  };

  for (int w = 0; w < W; ++w) {
    workers[static_cast<size_t>(w)].gpu->AddKernelDoneListener(
        [&, w](KernelId id) {
          Worker& wk = workers[static_cast<size_t>(w)];
          if (id != wk.outstanding) {
            return;
          }
          wk.outstanding = -1;
          const OpRef op = program[wk.pc];
          if (op.type == TrainOpType::kWeightGrad) {
            const int t = wk.iter;
            const int l = op.layer;
            const int64_t bytes =
                model.layers[static_cast<size_t>(l)].param_bytes;
            bytes_pushed += bytes;
            up[static_cast<size_t>(w)]->Transfer(
                bytes, push_priority(l),
                labels ? StrFormat("push[%d]#%d", l, t) : std::string(),
                [&, t, l] {
                  engine.ScheduleAt(engine.now(),
                                    [&, t, l] { on_grad(t, l); });
                });
          }
          ++wk.pc;
          if (wk.pc == program.size()) {
            wk.pc = 0;
            ++wk.iter;
          }
          try_issue(w);
        });
  }

  // Kick every worker's first forward at t = 0, then run until compute and
  // communication fully drain.
  for (int w = 0; w < W; ++w) {
    try_issue(w);
  }
  engine.Run();

  // -- Metrics --------------------------------------------------------------
  ClusterPsMetrics m;
  m.processed_events = engine.processed_events();
  m.bytes_pushed = bytes_pushed;
  TimeNs iter_sum = 0;
  double stall_sum = 0.0;
  double busy_sum = 0.0;
  for (int w = 0; w < W; ++w) {
    const Worker& wk = workers[static_cast<size_t>(w)];
    OOBP_CHECK_GE(wk.upd_done[static_cast<size_t>(T - 1)], 0);
    m.makespan =
        std::max(m.makespan, wk.upd_done[static_cast<size_t>(T - 1)]);
    const TimeNs iter = (wk.upd_done[static_cast<size_t>(T - 1)] -
                         wk.upd_done[0]) /
                        (T - 1);
    iter_sum += iter;
    if (w == 0) {
      m.worker_iter_min = m.worker_iter_max = iter;
    } else {
      m.worker_iter_min = std::min(m.worker_iter_min, iter);
      m.worker_iter_max = std::max(m.worker_iter_max, iter);
    }
    m.slowest_factor = std::max(m.slowest_factor, wk.factor);
    stall_sum += static_cast<double>(wk.stall);
    busy_sum += static_cast<double>(up[static_cast<size_t>(w)]->busy_time());
  }
  m.iteration_time = iter_sum / W;
  if (m.makespan > 0) {
    m.sync_stall_frac =
        stall_sum / (static_cast<double>(m.makespan) * W);
    m.uplink_busy_frac = busy_sum / (static_cast<double>(m.makespan) * W);
  }
  return m;
}

}  // namespace oobp

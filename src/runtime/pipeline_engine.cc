#include "src/runtime/pipeline_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/hw/link.h"
#include "src/sim/engine.h"

namespace oobp {

const char* PipelineStrategyName(PipelineStrategy s) {
  switch (s) {
    case PipelineStrategy::kGPipe:
      return "GPipe";
    case PipelineStrategy::kDapple:
      return "DAPPLE";
    case PipelineStrategy::kPipeDream:
      return "PipeDream";
    case PipelineStrategy::kMegatron:
      return "Megatron2";
    case PipelineStrategy::kMegatronFF:
      return "Megatron2+FF";
    case PipelineStrategy::kOooPipe1:
      return "OOO-Pipe1";
    case PipelineStrategy::kOooPipe2:
      return "OOO-Pipe2";
  }
  return "?";
}

PipelineEngine::PipelineEngine(PipelineConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GE(config_.num_gpus, 1);
  OOBP_CHECK_GE(config_.num_micro_batches, 1);
  OOBP_CHECK_GE(config_.modulo_group_size, 1);
}

LayerAssignment PipelineEngine::AssignmentFor(const NnModel& micro_model,
                                              PipelineStrategy strategy) const {
  if (strategy == PipelineStrategy::kOooPipe2) {
    return ModuloAllocation(micro_model.num_layers(), config_.num_gpus,
                            config_.modulo_group_size);
  }
  if (strategy == PipelineStrategy::kMegatron ||
      strategy == PipelineStrategy::kMegatronFF) {
    // Interleaved schedule: v chunks of contiguous layers per GPU == modulo
    // allocation at L / (n*v) granularity.
    const int L = micro_model.num_layers();
    const int group = std::max(
        1, L / (config_.num_gpus * std::max(1, config_.megatron_chunks)));
    return ModuloAllocation(L, config_.num_gpus, group);
  }
  const CostModel cost(config_.cluster.gpu, config_.profile);
  std::vector<double> costs;
  costs.reserve(micro_model.layers.size());
  for (const Layer& l : micro_model.layers) {
    costs.push_back(static_cast<double>(
        cost.Cost(l, TrainOpType::kForward).duration +
        cost.Cost(l, TrainOpType::kOutputGrad).duration +
        (l.has_params() ? cost.Cost(l, TrainOpType::kWeightGrad).duration : 0)));
  }
  return BalancedContiguousAllocation(costs, config_.num_gpus);
}

namespace {

enum class PipeOpKind { kFwd = 0, kDgrad = 1, kWgrad = 2 };

constexpr int64_t kNoOp = -1;

// Per-GPU list-scheduling simulator over the pipeline op graph.
class PipeSim {
 public:
  PipeSim(SimEngine* engine, const PipelineConfig& config,
          const NnModel& model, const TrainGraph& graph, const CostModel& cost,
          const LayerAssignment& assignment, PipelineStrategy strategy,
          int iterations, TraceRecorder* trace)
      : engine_(engine),
        config_(config),
        model_(model),
        graph_(graph),
        cost_(cost),
        assignment_(assignment),
        strategy_(strategy),
        iterations_(iterations),
        trace_(trace),
        L_(model.num_layers()),
        M_(config.num_micro_batches) {
    defer_wgrads_ = strategy == PipelineStrategy::kOooPipe1 ||
                    strategy == PipelineStrategy::kOooPipe2 ||
                    strategy == PipelineStrategy::kMegatronFF;
    // Conventional backward is a fused dO+dW operation: the gradient leaves
    // the layer only once both finish. Gradient fast-forwarding (Section 5.2)
    // sends it immediately after dO.
    fast_forward_ = defer_wgrads_;
    backward_preferred_ = strategy == PipelineStrategy::kPipeDream ||
                          strategy == PipelineStrategy::kDapple ||
                          strategy == PipelineStrategy::kMegatron ||
                          strategy == PipelineStrategy::kMegatronFF;
    flush_ = strategy != PipelineStrategy::kPipeDream;
    gpus_.resize(config.num_gpus);
    Build();
  }

  void Start() {
    ReleaseIteration(0);
    for (int g = 0; g < config_.num_gpus; ++g) {
      TryRun(g);
    }
  }

  TimeNs IterEnd(int t) const { return iter_end_[t]; }
  TimeNs compute_busy() const { return compute_busy_; }
  TimeNs comm_busy() const {
    TimeNs total = 0;
    for (const auto& [key, link] : links_) {
      total += link->busy_time();
    }
    return total;
  }
  const std::vector<int64_t>& peak_memory() const { return peak_mem_; }
  const std::vector<TimeNs>& fwd_start() const { return fwd_start_; }
  const std::vector<TimeNs>& wgrad_done() const { return wgrad_done_; }

  // Steady-state deltas per iteration, valid only after DetectSteadyPeriod
  // returned true for `base`: what one steady iteration adds to each
  // cumulative counter.
  TimeNs SteadyComputeDelta(int base) const {
    return cb_at_iter_[base + 2] - cb_at_iter_[base + 1];
  }
  TimeNs SteadyCommDelta(int base) const {
    return comm_at_iter_[base + 2] - comm_at_iter_[base + 1];
  }

  // Proves the (continuous-mode) truncated run is iteration-periodic over
  // iterations base..base+2: every existing op's completion time advances by
  // exactly the same integer period P, iteration boundaries advance by P,
  // the cumulative compute/communication busy counters advance by a constant
  // per-iteration delta, and per-GPU live/peak memory at the boundaries is
  // unchanged (the memory trajectory repeats and the peak stopped growing).
  // `base` must sit past the pipeline-fill transient (the caller uses
  // num_gpus + lookahead iterations of warm-up).
  bool DetectSteadyPeriod(int base, TimeNs* period) const {
    OOBP_CHECK_GE(base, 1);
    OOBP_CHECK_GE(iterations_, base + 3);
    const size_t b = static_cast<size_t>(base);
    const TimeNs p = iter_end_[b + 2] - iter_end_[b + 1];
    if (p <= 0 || iter_end_[b + 1] - iter_end_[b] != p) {
      return false;
    }
    const size_t per_iter = static_cast<size_t>(M_) * L_ * 3;
    for (size_t q = 0; q < per_iter; ++q) {
      const Op& o1 = ops_[b * per_iter + q];
      const Op& o2 = ops_[(b + 1) * per_iter + q];
      const Op& o3 = ops_[(b + 2) * per_iter + q];
      if (!o1.exists) {
        continue;
      }
      if (o2.done_time - o1.done_time != p ||
          o3.done_time - o2.done_time != p) {
        return false;
      }
    }
    if (cb_at_iter_[b + 1] - cb_at_iter_[b] !=
            cb_at_iter_[b + 2] - cb_at_iter_[b + 1] ||
        comm_at_iter_[b + 1] - comm_at_iter_[b] !=
            comm_at_iter_[b + 2] - comm_at_iter_[b + 1]) {
      return false;
    }
    for (int g = 0; g < config_.num_gpus; ++g) {
      if (live_at_iter_[b + 2][g] != live_at_iter_[b + 1][g] ||
          peak_at_iter_[b + 2][g] != peak_at_iter_[b + 1][g]) {
        return false;
      }
    }
    *period = p;
    return true;
  }

 private:
  struct Op {
    PipeOpKind kind;
    int iter, micro, layer, gpu;
    int deps = 0;
    int64_t priority = 0;
    TimeNs duration = 0;
    TimeNs done_time = -1;  // completion timestamp (replay detection)
    bool done = false;
    bool exists = true;
  };
  struct GpuState {
    bool busy = false;
    std::set<std::pair<int64_t, int>> ready;  // (priority, op index)
    std::set<std::pair<int64_t, int>> pool;   // deferred dW ops
    int fwd_started = 0;
    int bwd_done = 0;
    int owned_layers = 0;
  };

  int OpIndex(int t, int m, int l, PipeOpKind kind) const {
    return ((t * M_ + m) * L_ + l) * 3 + static_cast<int>(kind);
  }

  int64_t PriorityOf(int t, int m, int l, PipeOpKind kind) const {
    const int64_t iter_part = static_cast<int64_t>(t) << 44;
    int64_t phase;
    int64_t key;
    if (kind == PipeOpKind::kFwd) {
      phase = backward_preferred_ ? 1 : 0;
      key = static_cast<int64_t>(m) * L_ + l;
    } else {
      phase = backward_preferred_ ? 0 : 1;
      key = (static_cast<int64_t>(M_ - 1 - m) * L_ + (L_ - 1 - l)) * 2 +
            (kind == PipeOpKind::kDgrad ? 0 : 1);
    }
    return iter_part | (phase << 40) | key;
  }

  void Build() {
    ops_.assign(static_cast<size_t>(iterations_) * M_ * L_ * 3, Op{});
    iter_end_.assign(iterations_, 0);
    cb_at_iter_.assign(iterations_, 0);
    comm_at_iter_.assign(iterations_, 0);
    live_at_iter_.assign(iterations_, {});
    peak_at_iter_.assign(iterations_, {});
    fwd_start_.assign(L_, -1);
    wgrad_done_.assign(L_, -1);
    iter_ops_left_.assign(iterations_, 0);
    peak_mem_.assign(config_.num_gpus, 0);
    live_mem_.assign(config_.num_gpus, 0);
    act_consumers_.assign(ops_.size() / 3, 0);
    grad_consumers_.assign(ops_.size() / 3, 0);

    for (int g = 0; g < config_.num_gpus; ++g) {
      gpus_[g].owned_layers =
          static_cast<int>(LayersOf(assignment_, g).size());
    }
    // Static per-GPU memory: weights, gradients, optimizer state (+ stashed
    // versions for PipeDream).
    const int versions =
        strategy_ == PipelineStrategy::kPipeDream ? config_.num_gpus : 1;
    base_mem_.assign(config_.num_gpus, 0);
    for (int l = 0; l < L_; ++l) {
      base_mem_[assignment_[l]] +=
          model_.layers[l].param_bytes * (2 + versions);
    }
    for (int g = 0; g < config_.num_gpus; ++g) {
      live_mem_[g] = base_mem_[g];
      peak_mem_[g] = live_mem_[g];
    }

    for (int t = 0; t < iterations_; ++t) {
      for (int m = 0; m < M_; ++m) {
        for (int l = 0; l < L_; ++l) {
          const Layer& layer = model_.layers[l];
          for (PipeOpKind kind :
               {PipeOpKind::kFwd, PipeOpKind::kDgrad, PipeOpKind::kWgrad}) {
            Op& op = ops_[OpIndex(t, m, l, kind)];
            op.kind = kind;
            op.iter = t;
            op.micro = m;
            op.layer = l;
            op.gpu = assignment_[l];
            op.priority = PriorityOf(t, m, l, kind);
            if (kind == PipeOpKind::kWgrad && !graph_.HasWgrad(l)) {
              op.exists = false;
              op.done = true;
              continue;
            }
            if (kind == PipeOpKind::kDgrad && l == 0 &&
                config_.unit_time > 0) {
              // Unit-time mode follows the paper's figures: layer 0 computes
              // no input gradient.
              op.exists = false;
              op.done = true;
              continue;
            }
            const TrainOpType ot = kind == PipeOpKind::kFwd
                                       ? TrainOpType::kForward
                                       : (kind == PipeOpKind::kDgrad
                                              ? TrainOpType::kOutputGrad
                                              : TrainOpType::kWeightGrad);
            op.duration = config_.unit_time > 0
                              ? config_.unit_time
                              : cost_.Cost(layer, ot).duration +
                                    cost_.gpu().kernel_exec_overhead;
            // Dependencies: F needs its input activation (except layer 0,
            // which reads the micro-batch); dO/dW need the incoming
            // gradient. Iteration barriers for flush strategies are added
            // at release time.
            op.deps = (kind == PipeOpKind::kFwd && l == 0) ? 0 : 1;
            if (kind == PipeOpKind::kFwd && l == 0 && flush_ && t > 0) {
              op.deps = 1;  // released by the previous iteration's flush
            }
            ++iter_ops_left_[t];
          }
        }
      }
    }
    // Per-iteration update barrier time: the slowest GPU's weight updates
    // (free in unit-time mode — the paper's unit timelines do not count
    // updates).
    update_time_ = 0;
    if (config_.unit_time <= 0) {
      std::vector<TimeNs> per_gpu_update(config_.num_gpus, 0);
      for (int l = 0; l < L_; ++l) {
        if (graph_.HasWgrad(l)) {
          per_gpu_update[assignment_[l]] +=
              cost_.Cost(model_.layers[l], TrainOpType::kWeightUpdate).duration;
        }
      }
      for (TimeNs t : per_gpu_update) {
        update_time_ = std::max(update_time_, t);
      }
    }
  }

  // Makes the zero-dep roots of iteration t schedulable.
  void ReleaseIteration(int t) {
    if (t >= iterations_) {
      return;
    }
    for (int m = 0; m < M_; ++m) {
      const int idx = OpIndex(t, m, 0, PipeOpKind::kFwd);
      if (t == 0 || !flush_) {
        if (ops_[idx].deps == 0) {
          MakeReady(idx);
        }
      } else {
        SatisfyDep(idx);
      }
    }
    if (!flush_ && t + 1 < iterations_) {
      // Continuous mode: all iterations' roots are schedulable up front;
      // priorities and the in-flight cap pace them.
      ReleaseIteration(t + 1);
    }
  }

  void SatisfyDep(int idx) {
    Op& op = ops_[idx];
    OOBP_CHECK_GT(op.deps, 0);
    if (--op.deps == 0) {
      MakeReady(idx);
    }
  }

  void MakeReady(int idx) {
    const Op& op = ops_[idx];
    GpuState& gs = gpus_[op.gpu];
    if (op.kind == PipeOpKind::kWgrad && defer_wgrads_) {
      // Section 6: with reverse-first-k active, the first k layers' weight
      // gradients jump the pool in ascending order so their data-parallel
      // synchronizations begin as early as possible.
      int64_t pool_priority = op.priority;
      if (op.layer < config_.reverse_first_k) {
        pool_priority = (static_cast<int64_t>(op.iter) << 44) | op.layer;
      }
      gs.pool.emplace(pool_priority, idx);
    } else {
      gs.ready.emplace(op.priority, idx);
    }
    TryRun(op.gpu);
  }

  // PipeDream bounds in-flight micro-batches per stage to the number of
  // stashed weight versions.
  bool AdmitForward(const GpuState& gs) const {
    if (flush_) {
      return true;
    }
    const int cap = config_.num_gpus * std::max(1, gs.owned_layers);
    return gs.fwd_started - gs.bwd_done < cap;
  }

  void TryRun(int g) {
    GpuState& gs = gpus_[g];
    if (gs.busy) {
      return;
    }
    int chosen = -1;
    for (const auto& [prio, idx] : gs.ready) {
      if (ops_[idx].kind == PipeOpKind::kFwd && !AdmitForward(gs)) {
        continue;
      }
      chosen = idx;
      gs.ready.erase({prio, idx});
      break;
    }
    if (chosen < 0 && !gs.pool.empty()) {
      chosen = gs.pool.begin()->second;
      gs.pool.erase(gs.pool.begin());
    }
    if (chosen < 0) {
      return;
    }
    Op& op = ops_[chosen];
    gs.busy = true;
    if (op.kind == PipeOpKind::kFwd) {
      ++gs.fwd_started;
      if (op.iter == 0 &&
          (fwd_start_[op.layer] < 0 || engine_->now() < fwd_start_[op.layer])) {
        fwd_start_[op.layer] = engine_->now();
      }
    }
    compute_busy_ += op.duration;
    const TimeNs start = engine_->now();
    engine_->ScheduleAfter(op.duration, [this, chosen, start] {
      if (trace_ != nullptr) {
        const Op& done_op = ops_[chosen];
        TraceEvent ev;
        const char* kind_name = done_op.kind == PipeOpKind::kFwd
                                    ? "F"
                                    : (done_op.kind == PipeOpKind::kDgrad
                                           ? "dO"
                                           : "dW");
        ev.name = StrFormat("%s[%d]%c#%d", kind_name, done_op.layer,
                            'A' + done_op.micro % 26, done_op.iter);
        ev.category = done_op.kind == PipeOpKind::kFwd ? "fwd"
                      : done_op.kind == PipeOpKind::kDgrad ? "dO" : "dW";
        ev.track = done_op.gpu;
        ev.start = start;
        ev.duration = engine_->now() - start;
        trace_->Add(ev);
      }
      OnOpDone(chosen);
    });
  }

  Link* LinkFor(int src, int dst) {
    const auto key = std::make_pair(src, dst);
    auto it = links_.find(key);
    if (it != links_.end()) {
      return it->second.get();
    }
    LinkSpec spec = config_.use_link_override
                        ? config_.link_override
                        : config_.cluster.LinkBetween(src, dst);
    auto link = std::make_unique<Link>(engine_, spec, /*chunk_bytes=*/256 << 10,
                                       trace_,
                                       /*track=*/100 + src * 64 + dst);
    Link* raw = link.get();
    links_.emplace(key, std::move(link));
    return raw;
  }

  void AddMem(int g, int64_t bytes) {
    live_mem_[g] += bytes;
    peak_mem_[g] = std::max(peak_mem_[g], live_mem_[g]);
  }

  // Delivers layer l's output activation for (t, m) to the owner of l+1.
  void DeliverActivation(int t, int m, int l) {
    const int src = assignment_[l];
    const int dst = assignment_[l + 1];
    const int64_t bytes = model_.layers[l].output_bytes;
    // The activation is retained until layer l+1's backward no longer needs
    // it: dW(l+1) when it exists, dO(l+1) otherwise (one consumer either
    // way; the forward read does not release it).
    act_consumers_[OpIndex(t, m, l, PipeOpKind::kFwd) / 3] = 1;
    if (src == dst) {
      AddMem(dst, bytes);
      SatisfyDep(OpIndex(t, m, l + 1, PipeOpKind::kFwd));
      return;
    }
    AddMem(src, bytes);  // send buffer
    LinkFor(src, dst)->Transfer(
        bytes, /*priority=*/0,
        trace_ != nullptr ? StrFormat("act[%d]%c#%d", l, 'A' + m % 26, t)
                          : std::string(),
        [this, t, m, l, src, dst, bytes] {
          AddMem(src, -bytes);
          AddMem(dst, bytes);
          SatisfyDep(OpIndex(t, m, l + 1, PipeOpKind::kFwd));
        });
  }

  // Delivers the gradient flowing into layer l for (t, m) to l's owner.
  void DeliverGradient(int t, int m, int l, int src) {
    const int dst = assignment_[l];
    const int64_t bytes = model_.layers[l].output_bytes;
    const bool has_dgrad = ops_[OpIndex(t, m, l, PipeOpKind::kDgrad)].exists;
    grad_consumers_[OpIndex(t, m, l, PipeOpKind::kFwd) / 3] =
        (has_dgrad ? 1 : 0) + (graph_.HasWgrad(l) ? 1 : 0);
    auto arrive = [this, t, m, l, dst, bytes, has_dgrad] {
      AddMem(dst, bytes);
      if (has_dgrad) {
        SatisfyDep(OpIndex(t, m, l, PipeOpKind::kDgrad));
      }
      if (graph_.HasWgrad(l)) {
        SatisfyDep(OpIndex(t, m, l, PipeOpKind::kWgrad));
      }
    };
    if (src == dst) {
      arrive();
      return;
    }
    LinkFor(src, dst)->Transfer(
        bytes, /*priority=*/0,
        trace_ != nullptr ? StrFormat("grad[%d]%c#%d", l, 'A' + m % 26, t)
                          : std::string(),
        std::move(arrive));
  }

  void ConsumeActivation(int t, int m, int producer_layer) {
    const int slot = OpIndex(t, m, producer_layer, PipeOpKind::kFwd) / 3;
    OOBP_CHECK_GT(act_consumers_[slot], 0);
    if (--act_consumers_[slot] == 0) {
      AddMem(assignment_[producer_layer + 1],
             -model_.layers[producer_layer].output_bytes);
    }
  }

  void ConsumeGradient(int t, int m, int l) {
    const int slot = OpIndex(t, m, l, PipeOpKind::kFwd) / 3;
    OOBP_CHECK_GT(grad_consumers_[slot], 0);
    if (--grad_consumers_[slot] == 0) {
      AddMem(assignment_[l], -model_.layers[l].output_bytes);
    }
  }

  void OnOpDone(int idx) {
    Op& op = ops_[idx];
    op.done = true;
    op.done_time = engine_->now();
    GpuState& gs = gpus_[op.gpu];
    gs.busy = false;

    const int t = op.iter;
    const int m = op.micro;
    const int l = op.layer;
    switch (op.kind) {
      case PipeOpKind::kFwd:
        AddMem(op.gpu, model_.layers[l].stash_bytes);
        if (l + 1 < L_) {
          DeliverActivation(t, m, l);
        } else {
          // Loss: the gradient into the last layer materializes locally.
          DeliverGradient(t, m, L_ - 1, op.gpu);
        }
        break;
      case PipeOpKind::kDgrad:
        ++gs.bwd_done;
        AddMem(op.gpu, -model_.layers[l].stash_bytes);
        if (l > 0) {
          // Non-existent dW ops are marked done at build time, so this test
          // also covers parameter-free layers.
          if (fast_forward_ ||
              ops_[OpIndex(t, m, l, PipeOpKind::kWgrad)].done) {
            DeliverGradient(t, m, l - 1, op.gpu);
          }
          if (!graph_.HasWgrad(l)) {
            // A parameter-free layer releases its input activation here.
            ConsumeActivation(t, m, l - 1);
          }
        }
        ConsumeGradient(t, m, l);
        break;
      case PipeOpKind::kWgrad:
        if (t == 0) {
          wgrad_done_[l] = std::max(wgrad_done_[l], engine_->now());
        }
        if (!fast_forward_ && l > 0 &&
            ops_[OpIndex(t, m, l, PipeOpKind::kDgrad)].done) {
          DeliverGradient(t, m, l - 1, op.gpu);
        }
        if (l > 0) {
          ConsumeActivation(t, m, l - 1);
        }
        ConsumeGradient(t, m, l);
        break;
    }

    if (--iter_ops_left_[t] == 0) {
      // Iteration complete; apply weight updates (barriered for flush
      // strategies) and release the next iteration.
      const int done_iter = t;
      engine_->ScheduleAfter(flush_ ? update_time_ : 0, [this, done_iter] {
        iter_end_[done_iter] = engine_->now();
        // Iteration-boundary snapshots of every cumulative counter the
        // result reads; replay detection compares consecutive deltas and
        // extrapolation adds the steady delta once per skipped iteration.
        cb_at_iter_[done_iter] = compute_busy_;
        comm_at_iter_[done_iter] = comm_busy();
        live_at_iter_[done_iter] = live_mem_;
        peak_at_iter_[done_iter] = peak_mem_;
        if (flush_) {
          ReleaseIteration(done_iter + 1);
        }
      });
    }
    TryRun(op.gpu);
  }

  SimEngine* engine_;
  const PipelineConfig& config_;
  const NnModel& model_;
  const TrainGraph& graph_;
  const CostModel& cost_;
  const LayerAssignment& assignment_;
  PipelineStrategy strategy_;
  int iterations_;
  TraceRecorder* trace_;
  const int L_;
  const int M_;

  bool defer_wgrads_ = false;
  bool fast_forward_ = false;
  bool backward_preferred_ = false;
  bool flush_ = true;
  TimeNs update_time_ = 0;
  TimeNs compute_busy_ = 0;

  std::vector<Op> ops_;
  std::vector<GpuState> gpus_;
  std::vector<int> iter_ops_left_;
  std::vector<TimeNs> iter_end_;
  std::vector<TimeNs> cb_at_iter_;   // compute_busy_ at each iteration end
  std::vector<TimeNs> comm_at_iter_; // comm_busy() at each iteration end
  std::vector<std::vector<int64_t>> live_at_iter_;
  std::vector<std::vector<int64_t>> peak_at_iter_;
  std::map<std::pair<int, int>, std::unique_ptr<Link>> links_;
  std::vector<int> act_consumers_;   // keyed by (t, m, producer layer)
  std::vector<int> grad_consumers_;  // keyed by (t, m, target layer)
  std::vector<int64_t> live_mem_;
  std::vector<int64_t> base_mem_;
  std::vector<int64_t> peak_mem_;
  std::vector<TimeNs> fwd_start_;
  std::vector<TimeNs> wgrad_done_;
};

}  // namespace

PipelineResult PipelineEngine::Run(const NnModel& micro_model,
                                   PipelineStrategy strategy,
                                   TraceRecorder* trace,
                                   ReplayStats* replay_stats) const {
  const TrainGraph graph(&micro_model);
  const CostModel cost(config_.cluster.gpu, config_.profile);
  const LayerAssignment assignment = AssignmentFor(micro_model, strategy);
  OOBP_CHECK(AssignmentCoversAllGpus(assignment, config_.num_gpus))
      << "a GPU owns no layers: use fewer GPUs or a finer model";

  const bool continuous = strategy == PipelineStrategy::kPipeDream;
  const int iterations = continuous ? 1 + config_.measured_iterations : 1;

  ReplayStats local_stats;
  ReplayStats& stats = replay_stats != nullptr ? *replay_stats : local_stats;
  stats = ReplayStats();
  stats.total_iterations = iterations;

  // Replay window: pipeline-fill warm-up + 3 detection iterations + guard
  // tail. The pipe takes about num_gpus iterations to fill, and the
  // in-flight cap (AdmitForward) bounds how far ahead of the backward
  // frontier the scheduler can issue forwards — num_gpus * owned_layers ops
  // per GPU, about num_gpus * max_owned / M iterations of lookahead. The
  // detection block therefore starts after max(num_gpus, lookahead) + 1
  // warm-up iterations (past every fill/admission transient) and is followed
  // by lookahead + 2 guard iterations, so its iterations behave exactly like
  // full-run middle iterations (end effects cannot reach back into them).
  int window_iters = 0;
  int detect_base = 0;
  if (continuous) {
    int max_owned = 1;
    for (int g = 0; g < config_.num_gpus; ++g) {
      max_owned = std::max(
          max_owned, static_cast<int>(LayersOf(assignment, g).size()));
    }
    const int lookahead =
        (config_.num_gpus * max_owned + config_.num_micro_batches - 1) /
        config_.num_micro_batches;
    detect_base = std::max(config_.num_gpus, lookahead) + 1;
    window_iters = detect_base + 3 + 2 + lookahead;
  }

  if (!continuous) {
    stats.fallback_reason = "synchronous";
  } else if (!config_.steady_replay) {
    stats.fallback_reason = "disabled";
  } else if (trace != nullptr) {
    stats.fallback_reason = "traced";
  } else if (iterations <= window_iters) {
    stats.fallback_reason = "short-run";
  } else {
    stats.attempted = true;
  }

  PipelineResult result;
  result.assignment = assignment;
  result.weight_versions = continuous ? config_.num_gpus : 1;

  TimeNs first_end = 0;
  TimeNs final_end = 0;
  TimeNs compute_busy = 0;
  TimeNs comm_total = 0;

  // Simulates `iters` iterations; with `extrapolate`, returns false unless
  // the run is provably periodic, in which case the remaining iterations are
  // folded in arithmetically (all pipeline counters are integers, so the
  // extrapolated totals are exact). fwd_start/wgrad_done describe iteration
  // 0, which a truncated run reproduces exactly.
  const auto run_once = [&](int iters, bool extrapolate) {
    SimEngine engine;
    PipeSim sim(&engine, config_, micro_model, graph, cost, assignment,
                strategy, iters, trace);
    sim.Start();
    engine.Run();
    TimeNs period = 0;
    TimeNs compute_delta = 0;
    TimeNs comm_delta = 0;
    if (extrapolate) {
      if (!sim.DetectSteadyPeriod(detect_base, &period)) {
        return false;
      }
      compute_delta = sim.SteadyComputeDelta(detect_base);
      comm_delta = sim.SteadyCommDelta(detect_base);
    }
    const int64_t extra = iterations - iters;
    first_end = sim.IterEnd(0);
    final_end = sim.IterEnd(iters - 1) + extra * period;
    compute_busy = sim.compute_busy() + extra * compute_delta;
    comm_total = sim.comm_busy() + extra * comm_delta;
    result.per_gpu_peak_memory = sim.peak_memory();
    result.fwd_start = sim.fwd_start();
    result.wgrad_done = sim.wgrad_done();
    return true;
  };

  if (stats.attempted && run_once(window_iters, /*extrapolate=*/true)) {
    stats.replayed = true;
    stats.simulated_iterations = window_iters;
  } else {
    if (stats.attempted) {
      stats.fallback_reason = "aperiodic";
    }
    run_once(iterations, /*extrapolate=*/false);
    stats.simulated_iterations = iterations;
  }

  TimeNs iter_time;
  if (continuous) {
    OOBP_CHECK_GT(final_end, first_end);
    iter_time = (final_end - first_end) / config_.measured_iterations;
  } else {
    iter_time = final_end;
    OOBP_CHECK_GT(iter_time, 0) << "pipeline did not complete";
  }
  result.metrics.iteration_time = iter_time;
  result.metrics.throughput =
      static_cast<double>(micro_model.batch) * config_.num_micro_batches /
      ToSec(iter_time);
  result.metrics.gpu_utilization =
      static_cast<double>(compute_busy) /
      (static_cast<double>(iter_time) * config_.num_gpus * iterations);
  for (int64_t peak : result.per_gpu_peak_memory) {
    result.metrics.peak_memory_bytes =
        std::max(result.metrics.peak_memory_bytes, peak);
  }
  result.metrics.oom =
      result.metrics.peak_memory_bytes > config_.cluster.gpu.mem_bytes;
  if (compute_busy > 0) {
    result.comm_comp_ratio = static_cast<double>(comm_total) /
                             static_cast<double>(compute_busy);
    result.metrics.comm_comp_ratio = result.comm_comp_ratio;
  }
  return result;
}

}  // namespace oobp

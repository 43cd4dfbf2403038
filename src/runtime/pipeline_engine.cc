#include "src/runtime/pipeline_engine.h"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/hw/link.h"
#include "src/hw/validation_hooks.h"
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

// Pipeline links send every transfer in chunks of this many bytes.
constexpr int64_t kChunkBytes = 256 << 10;

// What a pipeline event does when it fires. `slot` is the op index for
// kOpDone, the iteration for kIterEnd, and for an arrival the
// (iteration, micro-batch, layer) slot of the tensor: the producing layer's
// activation, or the gradient flowing into that layer.
struct PipeEvent {
  enum Kind : int32_t { kOpDone, kIterEnd, kActivation, kGradient };
  Kind kind;
  int32_t slot;
};

class PipeSim;

// The clock, event queue and links a PipeSim runs on. EventBackend is the
// reference: a SimEngine and one Link per GPU pair, one event per chunk.
// PipeExecutor steps each message once and runs the same events in the same
// order (DESIGN.md §6.3).
class PipeBackend {
 public:
  virtual ~PipeBackend() = default;
  // Starts `sim` and runs until no event is pending.
  virtual void Run(PipeSim* sim) = 0;
  virtual TimeNs now() const = 0;
  // Fires `event` `delay` after now.
  virtual void Schedule(TimeNs delay, PipeEvent event) = 0;
  // Sends `bytes` from GPU `src` to GPU `dst` at priority 0 and fires
  // `arrival` when the last chunk lands. `name` labels the trace event.
  virtual void Send(int src, int dst, int64_t bytes, std::string name,
                    PipeEvent arrival) = 0;
  // Busy time summed over the links: every chunk that started before the
  // event being processed.
  virtual TimeNs comm_busy() const = 0;
};

LinkSpec LinkSpecFor(const PipelineConfig& config, int src, int dst) {
  return config.use_link_override ? config.link_override
                                  : config.cluster.LinkBetween(src, dst);
}

// Per-GPU list-scheduling simulator over the pipeline op graph.
class PipeSim {
 public:
  PipeSim(PipeBackend* backend, const PipelineConfig& config,
          const NnModel& model, const TrainGraph& graph, const CostModel& cost,
          const LayerAssignment& assignment, PipelineStrategy strategy,
          int iterations, TraceRecorder* trace)
      : backend_(backend),
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

  void Fire(PipeEvent event) {
    switch (event.kind) {
      case PipeEvent::kOpDone:
        OnOpDone(event.slot);
        break;
      case PipeEvent::kIterEnd:
        OnIterEnd(event.slot);
        break;
      case PipeEvent::kActivation:
        OnActivation(event.slot);
        break;
      case PipeEvent::kGradient:
        OnGradient(event.slot);
        break;
    }
  }

  TimeNs IterEnd(int t) const { return iter_end_[t]; }
  TimeNs compute_busy() const { return compute_busy_; }
  TimeNs comm_busy() const { return backend_->comm_busy(); }
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

    // Which ops exist and how long they take depend only on (layer, kind).
    // Unit-time mode follows the paper's figures: layer 0 computes no input
    // gradient, and every op takes exactly `unit_time`.
    std::vector<std::array<TimeNs, 3>> duration(L_, {-1, -1, -1});
    for (int l = 0; l < L_; ++l) {
      const Layer& layer = model_.layers[l];
      for (PipeOpKind kind :
           {PipeOpKind::kFwd, PipeOpKind::kDgrad, PipeOpKind::kWgrad}) {
        if ((kind == PipeOpKind::kWgrad && !graph_.HasWgrad(l)) ||
            (kind == PipeOpKind::kDgrad && l == 0 && config_.unit_time > 0)) {
          continue;
        }
        const TrainOpType ot = kind == PipeOpKind::kFwd
                                   ? TrainOpType::kForward
                                   : (kind == PipeOpKind::kDgrad
                                          ? TrainOpType::kOutputGrad
                                          : TrainOpType::kWeightGrad);
        duration[l][static_cast<int>(kind)] =
            config_.unit_time > 0 ? config_.unit_time
                                  : cost_.Cost(layer, ot).duration +
                                        cost_.gpu().kernel_exec_overhead;
      }
    }

    for (int t = 0; t < iterations_; ++t) {
      for (int m = 0; m < M_; ++m) {
        for (int l = 0; l < L_; ++l) {
          for (PipeOpKind kind :
               {PipeOpKind::kFwd, PipeOpKind::kDgrad, PipeOpKind::kWgrad}) {
            Op& op = ops_[OpIndex(t, m, l, kind)];
            op.kind = kind;
            op.iter = t;
            op.micro = m;
            op.layer = l;
            op.gpu = assignment_[l];
            op.priority = PriorityOf(t, m, l, kind);
            op.duration = duration[l][static_cast<int>(kind)];
            if (op.duration < 0) {
              op.exists = false;
              op.done = true;
              continue;
            }
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
    const TimeNs now = backend_->now();
    if (op.kind == PipeOpKind::kFwd) {
      ++gs.fwd_started;
      if (op.iter == 0 &&
          (fwd_start_[op.layer] < 0 || now < fwd_start_[op.layer])) {
        fwd_start_[op.layer] = now;
      }
    }
    compute_busy_ += op.duration;
    backend_->Schedule(op.duration, {PipeEvent::kOpDone, chosen});
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
    const int slot = OpIndex(t, m, l, PipeOpKind::kFwd) / 3;
    act_consumers_[slot] = 1;
    if (src == dst) {
      AddMem(dst, bytes);
      SatisfyDep(OpIndex(t, m, l + 1, PipeOpKind::kFwd));
      return;
    }
    AddMem(src, bytes);  // send buffer
    backend_->Send(src, dst, bytes,
                  trace_ != nullptr
                      ? StrFormat("act[%d]%c#%d", l, 'A' + m % 26, t)
                      : std::string(),
                  {PipeEvent::kActivation, slot});
  }

  void OnActivation(int slot) {
    const int l = slot % L_;
    const int tm = slot / L_;
    const int64_t bytes = model_.layers[l].output_bytes;
    AddMem(assignment_[l], -bytes);
    AddMem(assignment_[l + 1], bytes);
    SatisfyDep(OpIndex(tm / M_, tm % M_, l + 1, PipeOpKind::kFwd));
  }

  // Delivers the gradient flowing into layer l for (t, m) to l's owner.
  void DeliverGradient(int t, int m, int l, int src) {
    const int dst = assignment_[l];
    const bool has_dgrad = ops_[OpIndex(t, m, l, PipeOpKind::kDgrad)].exists;
    const int slot = OpIndex(t, m, l, PipeOpKind::kFwd) / 3;
    grad_consumers_[slot] =
        (has_dgrad ? 1 : 0) + (graph_.HasWgrad(l) ? 1 : 0);
    if (src == dst) {
      OnGradient(slot);
      return;
    }
    backend_->Send(src, dst, model_.layers[l].output_bytes,
                  trace_ != nullptr
                      ? StrFormat("grad[%d]%c#%d", l, 'A' + m % 26, t)
                      : std::string(),
                  {PipeEvent::kGradient, slot});
  }

  void OnGradient(int slot) {
    const int l = slot % L_;
    AddMem(assignment_[l], model_.layers[l].output_bytes);
    const Op& dgrad = ops_[slot * 3 + static_cast<int>(PipeOpKind::kDgrad)];
    if (dgrad.exists) {
      SatisfyDep(slot * 3 + static_cast<int>(PipeOpKind::kDgrad));
    }
    if (graph_.HasWgrad(l)) {
      SatisfyDep(slot * 3 + static_cast<int>(PipeOpKind::kWgrad));
    }
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
    const TimeNs now = backend_->now();
    if (trace_ != nullptr) {
      TraceEvent ev;
      const char* kind_name = op.kind == PipeOpKind::kFwd
                                  ? "F"
                                  : (op.kind == PipeOpKind::kDgrad ? "dO"
                                                                   : "dW");
      ev.name = StrFormat("%s[%d]%c#%d", kind_name, op.layer,
                          'A' + op.micro % 26, op.iter);
      ev.category = op.kind == PipeOpKind::kFwd     ? "fwd"
                    : op.kind == PipeOpKind::kDgrad ? "dO"
                                                    : "dW";
      ev.track = op.gpu;
      ev.start = now - op.duration;
      ev.duration = op.duration;
      trace_->Add(ev);
    }
    op.done = true;
    op.done_time = now;
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
          wgrad_done_[l] = std::max(wgrad_done_[l], now);
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
      backend_->Schedule(flush_ ? update_time_ : 0, {PipeEvent::kIterEnd, t});
    }
    TryRun(op.gpu);
  }

  void OnIterEnd(int t) {
    iter_end_[t] = backend_->now();
    // Iteration-boundary snapshots of every cumulative counter the result
    // reads; replay detection compares consecutive deltas and extrapolation
    // adds the steady delta once per skipped iteration.
    cb_at_iter_[t] = compute_busy_;
    comm_at_iter_[t] = comm_busy();
    live_at_iter_[t] = live_mem_;
    peak_at_iter_[t] = peak_mem_;
    if (flush_) {
      ReleaseIteration(t + 1);
    }
  }

  PipeBackend* backend_;
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
  std::vector<int> act_consumers_;   // keyed by (t, m, producer layer)
  std::vector<int> grad_consumers_;  // keyed by (t, m, target layer)
  std::vector<int64_t> live_mem_;
  std::vector<int64_t> base_mem_;
  std::vector<int64_t> peak_mem_;
  std::vector<TimeNs> fwd_start_;
  std::vector<TimeNs> wgrad_done_;
};

// The reference producer: every op completion, iteration end and link chunk
// is a SimEngine event. Traced runs and runs under a ValidationScope take it
// (only it emits trace events and builds observable Links).
class EventBackend final : public PipeBackend {
 public:
  EventBackend(const PipelineConfig& config, TraceRecorder* trace)
      : config_(config), trace_(trace) {}

  void Run(PipeSim* sim) override {
    sim_ = sim;
    sim->Start();
    engine_.Run();
  }
  TimeNs now() const override { return engine_.now(); }
  void Schedule(TimeNs delay, PipeEvent event) override {
    engine_.ScheduleAfter(delay, [this, event] { sim_->Fire(event); });
  }
  void Send(int src, int dst, int64_t bytes, std::string name,
            PipeEvent arrival) override {
    LinkFor(src, dst)->Transfer(bytes, /*priority=*/0, std::move(name),
                                [this, arrival] { sim_->Fire(arrival); });
  }
  TimeNs comm_busy() const override {
    TimeNs total = 0;
    for (const auto& [key, link] : links_) {
      total += link->busy_time();
    }
    return total;
  }

 private:
  Link* LinkFor(int src, int dst) {
    const auto key = std::make_pair(src, dst);
    auto it = links_.find(key);
    if (it != links_.end()) {
      return it->second.get();
    }
    auto link = std::make_unique<Link>(&engine_, LinkSpecFor(config_, src, dst),
                                       kChunkBytes, trace_,
                                       /*track=*/100 + src * 64 + dst);
    Link* raw = link.get();
    links_.emplace(key, std::move(link));
    return raw;
  }

  const PipelineConfig& config_;
  TraceRecorder* trace_;
  PipeSim* sim_ = nullptr;
  SimEngine engine_;
  std::map<std::pair<int, int>, std::unique_ptr<Link>> links_;
};

// Exact message-level executor for untraced, unvalidated runs. Pipeline
// links carry priority-0 transfers with no commit window, so a message holds
// its link from its first chunk to its last and its chunk boundaries change
// nothing but event order. The executor steps op completions and iteration
// ends as EventBackend does, but steps each message once, at the completion
// time ChunkTiming gives, and runs every event at its place in the event
// path's (time, seq) order:
//   * every event the executor steps gets a sequence number when it is
//     drawn, in the event path's draw order (the shared PipeSim makes the
//     same calls in the same order), and so does each message's first
//     chunk;
//   * a completion of a message of several chunks is drawn by its last
//     chunk's start, a skipped event whose own draw chain runs back, one
//     chunk at a time, to the first chunk;
//   * Before() orders two events as SimEngine would: by time, then by
//     sequence number, which follows the order in which the drawing events
//     ran, so it walks both draw chains back until times or sequence
//     numbers differ.
// The executor adds the event path's event count, skipped chunks included,
// to SimEngine's tally.
class PipeExecutor final : public PipeBackend {
 public:
  explicit PipeExecutor(const PipelineConfig& config)
      : config_(config),
        links_(static_cast<size_t>(config.num_gpus) * config.num_gpus) {}

  void Run(PipeSim* sim) override {
    sim->Start();
    uint64_t steps = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{this});
      current_ = heap_.back();
      heap_.pop_back();
      const Event event = events_[current_];
      now_ = event.node.time;
      ++steps;
      if (event.message < 0) {
        sim->Fire(event.what);
        continue;
      }
      // Link::StartNextChunk's completion: the message leaves the link, the
      // arrival runs, then the next waiting message starts.
      LinkState& link = links_[messages_[event.message].link];
      const ChunkTiming& timing = messages_[event.message].timing;
      busy_ += timing.End() - timing.ChunkEnd(1);
      link.busy = false;
      link.head = messages_[event.message].next;
      if (link.head < 0) {
        link.tail = -1;
      }
      sim->Fire(event.what);
      StartHead(link);
    }
    SimEngine::AddProcessedEvents(steps + skipped_chunks_);
  }

  TimeNs now() const override { return now_; }

  void Schedule(TimeNs delay, PipeEvent event) override {
    Push(Event{{now_ + delay, next_seq_++, {current_, 0}}, event, -1});
  }

  void Send(int src, int dst, int64_t bytes, std::string /*name*/,
            PipeEvent arrival) override {
    const size_t index = static_cast<size_t>(src) * config_.num_gpus + dst;
    LinkState& link = links_[index];
    if (!link.spec.has_value()) {
      link.spec = LinkSpecFor(config_, src, dst);
    }
    const int32_t m = static_cast<int32_t>(messages_.size());
    messages_.push_back(Message{ChunkTiming(*link.spec, kChunkBytes, bytes),
                                arrival, static_cast<int32_t>(index)});
    if (link.tail >= 0) {
      messages_[link.tail].next = m;
    } else {
      link.head = m;
    }
    link.tail = m;
    StartHead(link);
  }

  // Link::busy_time() adds each chunk's time when the chunk starts. Chunk
  // j + 1 of a message starts at the (skipped) end of chunk j, so a sending
  // message counts the chunk ends that ran before the current event.
  TimeNs comm_busy() const override {
    TimeNs total = busy_;
    for (const LinkState& link : links_) {
      if (!link.busy) {
        continue;
      }
      const Message& msg = messages_[link.head];
      const ChunkTiming& timing = msg.timing;
      const TimeNs since = now_ - msg.start - timing.latency;
      if (timing.chunks == 1 || since < timing.full) {
        continue;
      }
      int64_t ended = std::min<int64_t>(since / timing.full, timing.chunks - 1);
      if (ended * timing.full == since &&
          !Before({link.head, static_cast<int32_t>(ended)}, {current_, 0})) {
        --ended;  // that chunk end shares the current event's nanosecond
      }
      total += timing.ChunkEnd(ended + 1) - timing.ChunkEnd(1);
    }
    return total;
  }

 private:
  // Names an event of the event path. chunk == 0: events_[index], or the
  // run's start (index -1), which precedes every event. chunk j > 0: the end
  // of chunk j of messages_[index], 1 <= j < chunks, which the executor
  // skips.
  struct NodeRef {
    int32_t index;
    int32_t chunk;
    bool operator==(const NodeRef&) const = default;
  };
  // An event's time and how it was drawn: `seq` is its executor sequence
  // number, or 0 when a skipped chunk end drew it; `parent` is the event
  // that drew it.
  struct Node {
    TimeNs time;
    uint64_t seq;
    NodeRef parent;
  };
  struct Event {
    Node node;
    PipeEvent what;
    int32_t message;  // >= 0: this event completes messages_[message]
  };
  struct Message {
    ChunkTiming timing;
    PipeEvent arrival;
    int32_t link;
    int32_t next = -1;  // next message on the same link, FIFO
    TimeNs start = -1;
    uint64_t seq = 0;       // the first chunk's sequence number
    int32_t drawer = -1;    // the event that started the message
  };
  // One direction of a GPU pair: a FIFO of messages from head to tail; the
  // head is on the wire while `busy`.
  struct LinkState {
    std::optional<LinkSpec> spec;
    int32_t head = -1;
    int32_t tail = -1;
    bool busy = false;
  };

  Node Resolve(NodeRef ref) const {
    if (ref.chunk == 0) {
      return ref.index < 0 ? Node{-1, 0, ref} : events_[ref.index].node;
    }
    const Message& msg = messages_[ref.index];
    const TimeNs time = msg.start + msg.timing.ChunkEnd(ref.chunk);
    return ref.chunk == 1 ? Node{time, msg.seq, {msg.drawer, 0}}
                          : Node{time, 0, {ref.index, ref.chunk - 1}};
  }

  // Whether the event path runs `a` before `b`: SimEngine's (time, seq)
  // order. A sequence number is drawn while its drawer runs, so two events
  // at one time run in their drawers' order; only executor-drawn numbers
  // compare directly.
  bool Before(NodeRef a, NodeRef b) const {
    while (!(a == b)) {
      const Node x = Resolve(a);
      const Node y = Resolve(b);
      if (x.time != y.time) {
        return x.time < y.time;
      }
      if (x.seq != 0 && y.seq != 0) {
        return x.seq < y.seq;
      }
      a = x.parent;
      b = y.parent;
    }
    return false;
  }

  // Heap order over events_ indices: the event the event path runs first
  // is on top.
  struct Later {
    const PipeExecutor* exec;
    bool operator()(int32_t a, int32_t b) const {
      return exec->Before({b, 0}, {a, 0});
    }
  };

  void Push(const Event& event) {
    events_.push_back(event);
    heap_.push_back(static_cast<int32_t>(events_.size() - 1));
    std::push_heap(heap_.begin(), heap_.end(), Later{this});
  }

  // Link::RefillAndStart: an idle link starts its oldest waiting message.
  // The first chunk's event is drawn now; the completion is stepped at
  // ChunkTiming::End(), drawn by the last chunk's start.
  void StartHead(LinkState& link) {
    if (link.busy || link.head < 0) {
      return;
    }
    link.busy = true;
    Message& msg = messages_[link.head];
    msg.start = now_;
    msg.seq = next_seq_++;
    msg.drawer = current_;
    busy_ += msg.timing.ChunkEnd(1);
    skipped_chunks_ += static_cast<uint64_t>(msg.timing.chunks - 1);
    const TimeNs done = now_ + msg.timing.End();
    Push(msg.timing.chunks == 1
             ? Event{{done, msg.seq, {current_, 0}}, msg.arrival, link.head}
             : Event{{done, 0,
                      {link.head, static_cast<int32_t>(msg.timing.chunks - 1)}},
                     msg.arrival, link.head});
  }

  const PipelineConfig& config_;
  TimeNs now_ = 0;
  int32_t current_ = -1;  // the event being stepped; -1 before the first
  uint64_t next_seq_ = 1;
  uint64_t skipped_chunks_ = 0;
  // Link time of every started message's first chunk and of every
  // completed message's other chunks.
  TimeNs busy_ = 0;
  std::vector<Event> events_;
  std::vector<int32_t> heap_;  // pending events_, earliest on top
  std::vector<Message> messages_;
  std::vector<LinkState> links_;  // indexed src * num_gpus + dst
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
  // The executor reproduces the event path bit for bit; only the event
  // path emits trace events and builds Links the SimValidator can observe.
  stats.executor = trace == nullptr && ActiveHwValidationHooks() == nullptr;

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
    std::unique_ptr<PipeBackend> backend;
    if (stats.executor) {
      backend = std::make_unique<PipeExecutor>(config_);
    } else {
      backend = std::make_unique<EventBackend>(config_, trace);
    }
    PipeSim sim(backend.get(), config_, micro_model, graph, cost, assignment,
                strategy, iters, trace);
    backend->Run(&sim);
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

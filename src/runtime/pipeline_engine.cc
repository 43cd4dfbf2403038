#include "src/runtime/pipeline_engine.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/hw/link.h"
#include "src/hw/observer.h"
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
  // `arrival` when the last chunk lands. `name` labels the transfer for
  // observers.
  virtual void Send(int src, int dst, int64_t bytes, std::string name,
                    PipeEvent arrival) = 0;
  // Busy time summed over the links: every chunk that started before the
  // event being processed.
  virtual TimeNs comm_busy() const = 0;
  // For the boundary rule (PipeSim::AtBoundary): appends to `key` the event
  // path's pending state, seen from now, with each fired PipeEvent written
  // as `code` gives it. Returns false, appending nothing, on a backend that
  // steps every iteration.
  virtual bool AppendPending(const std::function<int64_t(PipeEvent)>& code,
                             std::vector<int64_t>* key) const = 0;
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
          int iterations)
      : backend_(backend),
        config_(config),
        model_(model),
        graph_(graph),
        cost_(cost),
        assignment_(assignment),
        strategy_(strategy),
        iterations_(iterations),
        L_(model.num_layers()),
        M_(config.num_micro_batches),
        observers_(RegisterDevice(&timeline_)) {
    if (observers_ != nullptr) {
      Notify(*observers_, &DeviceObserver::OnTimelineCreated, timeline_);
    }
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

  // What a repeated boundary let the run skip (AtBoundary): the time,
  // compute busy and link busy time of the whole periods it skipped.
  struct Skip {
    TimeNs time = 0;
    TimeNs compute_busy = 0;
    TimeNs comm_busy = 0;
  };

  // Iterations stepped: the run's, less the skipped ones.
  int iterations() const { return iterations_; }
  const Skip& skipped() const { return skip_; }
  TimeNs IterEnd(int t) const { return iter_end_[t]; }
  TimeNs compute_busy() const { return compute_busy_; }
  TimeNs comm_busy() const { return backend_->comm_busy(); }
  const std::vector<int64_t>& peak_memory() const { return peak_mem_; }
  const std::vector<TimeNs>& fwd_start() const { return fwd_start_; }
  const std::vector<TimeNs>& wgrad_done() const { return wgrad_done_; }

 private:
  struct Op {
    PipeOpKind kind;
    int iter, micro, layer, gpu;
    int deps = 0;
    int64_t priority = 0;
    TimeNs duration = 0;
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
    // Ops and tensor slots are built an iteration at a time, when the
    // iteration's roots are released (BuildIteration), so a run that skips
    // periods never builds them. Reserving keeps references to ops valid.
    const size_t per_iter = static_cast<size_t>(M_) * L_;
    ops_.reserve(iterations_ * per_iter * 3);
    act_consumers_.reserve(iterations_ * per_iter);
    grad_consumers_.reserve(iterations_ * per_iter);
    iter_end_.assign(iterations_, 0);
    fwd_start_.assign(L_, -1);
    wgrad_done_.assign(L_, -1);
    iter_ops_left_.assign(iterations_, 0);
    peak_mem_.assign(config_.num_gpus, 0);
    live_mem_.assign(config_.num_gpus, 0);

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
    duration_.assign(L_, {-1, -1, -1});
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
        duration_[l][static_cast<int>(kind)] =
            config_.unit_time > 0 ? config_.unit_time
                                  : cost_.Cost(layer, ot).duration +
                                        cost_.gpu().kernel_exec_overhead;
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

  // Appends iteration t's ops and tensor slots, after iteration t - 1's.
  void BuildIteration(int t) {
    OOBP_CHECK_EQ(ops_.size(), static_cast<size_t>(OpIndex(t, 0, 0,
                                                           PipeOpKind::kFwd)));
    for (int m = 0; m < M_; ++m) {
      for (int l = 0; l < L_; ++l) {
        for (PipeOpKind kind :
             {PipeOpKind::kFwd, PipeOpKind::kDgrad, PipeOpKind::kWgrad}) {
          Op& op = ops_.emplace_back();
          op.kind = kind;
          op.iter = t;
          op.micro = m;
          op.layer = l;
          op.gpu = assignment_[l];
          op.priority = PriorityOf(t, m, l, kind);
          op.duration = duration_[l][static_cast<int>(kind)];
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
    act_consumers_.resize(ops_.size() / 3, 0);
    grad_consumers_.resize(ops_.size() / 3, 0);
  }

  // Makes the roots of iteration t, its layer-0 forwards, schedulable.
  // Flush strategies release iteration t + 1 when iteration t ends.
  // Continuous mode releases it when iteration t's last root starts
  // (TryRun); priorities and the in-flight cap pace the roots. That is when
  // the first root of t + 1 could start anyway: a root of t + 1 never
  // outranks a root of t and meets the same cap, so while a root of t is
  // ready no root of t + 1 is chosen.
  void ReleaseIteration(int t) {
    if (t >= iterations_) {
      return;  // the run's horizon; continuous mode keeps roots_left_ == 0
    }
    BuildIteration(t);
    if (!flush_) {
      released_ = t;
      roots_left_ = M_;
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
  // stashed weight versions. It compares forwards started with backward
  // completions, one of each per owned (micro-batch, layer): the layer's dO
  // completes its backward; a layer without one (unit-time mode drops layer
  // 0's) completes it with its dW, and a layer with neither when its
  // gradient arrives.
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
    if (!flush_ && op.kind == PipeOpKind::kFwd && op.layer == 0 &&
        --roots_left_ == 0) {
      ReleaseIteration(op.iter + 1);
    }
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
                  observers_ != nullptr
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
                  observers_ != nullptr
                      ? StrFormat("grad[%d]%c#%d", l, 'A' + m % 26, t)
                      : std::string(),
                  {PipeEvent::kGradient, slot});
  }

  void OnGradient(int slot) {
    const int l = slot % L_;
    if (grad_consumers_[slot] == 0) {
      // A layer with neither dO nor dW: its backward completes on arrival,
      // and nothing holds the gradient.
      ++gpus_[assignment_[l]].bwd_done;
      TryRun(assignment_[l]);
      return;
    }
    AddMem(assignment_[l], model_.layers[l].output_bytes);
    if (ops_[slot * 3 + static_cast<int>(PipeOpKind::kDgrad)].exists) {
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
    if (observers_ != nullptr) {
      const char* kind_name = op.kind == PipeOpKind::kFwd
                                  ? "F"
                                  : (op.kind == PipeOpKind::kDgrad ? "dO"
                                                                   : "dW");
      const std::string name = StrFormat("%s[%d]%c#%d", kind_name, op.layer,
                                         'A' + op.micro % 26, op.iter);
      Notify(*observers_, &DeviceObserver::OnSpan,
             Span{.timeline = timeline_, .lane = op.gpu,
                  .start = now - op.duration, .duration = op.duration,
                  .name = name,
                  .category = op.kind == PipeOpKind::kFwd     ? "fwd"
                              : op.kind == PipeOpKind::kDgrad ? "dO"
                                                              : "dW"});
    }
    op.done = true;
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
        if (!ops_[OpIndex(t, m, l, PipeOpKind::kDgrad)].exists) {
          ++gs.bwd_done;
        }
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
    ++iters_ended_;
    if (flush_) {
      ReleaseIteration(t + 1);
    } else if (looking_) {
      AtBoundary(t);
    }
  }

  // The state at a continuous run's iteration boundary, kIterEnd(t), and
  // the counters the result reads, by then.
  struct Boundary {
    int t = 0;
    TimeNs time = 0;
    TimeNs compute_busy = 0;
    TimeNs comm_busy = 0;
    std::vector<int64_t> key;
  };

  // The boundary rule (DESIGN.md §9.2), called when iteration t ends. The
  // boundary is clean when every iteration up to t has ended and the run's
  // horizon has cut nothing yet: the released iteration still has a root to
  // start (ReleaseIteration). Every op of iterations <= t has then
  // completed and released what it held, and no op of an iteration past
  // the released one has been touched. So the rest of the run reads, seen
  // from t: each GPU's busy op (a pending event), ready set, dW pool,
  // forwards started less backwards done (the in-flight cap) and live
  // memory; the dependency counts, done flags and tensor consumer counts of
  // iterations t + 1 up to the released one; the released iteration and its
  // roots left; and the backend's pending events and link queues
  // (AppendPending). Once that state repeats an earlier clean boundary's, a
  // period of p iterations before, the run from here is a copy of the run
  // from there, and so is the run a whole number k of periods on, as long
  // as its horizon still has cut nothing: k * p <= iterations_ - 1 -
  // released_. So the run moves its horizon in by k periods and goes on,
  // stepping its drain; the skipped periods add k times the time and busy
  // counters between the two boundaries, and nothing new to the memory
  // peaks, fwd_start or wgrad_done.
  void AtBoundary(int t) {
    if (iters_ended_ != t + 1 || roots_left_ == 0) {
      return;
    }
    Boundary cur;
    cur.t = t;
    cur.time = backend_->now();
    cur.compute_busy = compute_busy_;
    cur.comm_busy = comm_busy();
    const auto code = [this, t](PipeEvent e) { return Code(e, t); };
    if (!backend_->AppendPending(code, &cur.key)) {
      looking_ = false;
      return;
    }
    AppendState(t, &cur.key);
    for (const Boundary& earlier : boundaries_) {
      if (earlier.key != cur.key) {
        continue;
      }
      const int p = t - earlier.t;
      const int k = (iterations_ - 1 - released_) / p;
      skip_ = Skip{k * (cur.time - earlier.time),
                   k * (cur.compute_busy - earlier.compute_busy),
                   k * (cur.comm_busy - earlier.comm_busy)};
      iterations_ -= k * p;
      looking_ = false;
      return;
    }
    boundaries_.push_back(std::move(cur));
  }

  // A fired event seen from iteration t: the kind, and the op, iteration or
  // tensor slot counted from iteration t's first.
  int64_t Code(PipeEvent e, int t) const {
    const int64_t per_iter = static_cast<int64_t>(M_) * L_;
    const int64_t base = e.kind == PipeEvent::kOpDone    ? t * per_iter * 3
                         : e.kind == PipeEvent::kIterEnd ? t
                                                         : t * per_iter;
    return (e.slot - base) * 4 + e.kind;
  }

  // Appends PipeSim's part of boundary t's state (AtBoundary).
  void AppendState(int t, std::vector<int64_t>* key) const {
    const int64_t per_iter = static_cast<int64_t>(M_) * L_;
    const int64_t first_op = (t + 1) * per_iter * 3;
    key->push_back(released_ - t);
    key->push_back(roots_left_);
    for (int g = 0; g < config_.num_gpus; ++g) {
      const GpuState& gs = gpus_[g];
      key->push_back(gs.busy ? 1 : 0);
      key->push_back(gs.fwd_started - gs.bwd_done);
      key->push_back(live_mem_[g]);
      // The sets' order follows from the ops: priorities are per op.
      key->push_back(static_cast<int64_t>(gs.ready.size()));
      for (const auto& entry : gs.ready) {
        key->push_back(entry.second - first_op);
      }
      key->push_back(static_cast<int64_t>(gs.pool.size()));
      for (const auto& entry : gs.pool) {
        key->push_back(entry.second - first_op);
      }
    }
    // A byte per op and per tensor slot, eight to a word: dependency counts
    // are 0 or 1, and a tensor has at most one activation consumer and two
    // gradient consumers.
    const auto append_bytes = [key](int64_t begin, int64_t end,
                                    const auto& byte_of) {
      for (int64_t i = begin; i < end; i += 8) {
        uint64_t word = 0;
        for (int64_t j = i; j < std::min(end, i + 8); ++j) {
          word |= static_cast<uint64_t>(byte_of(j)) << (8 * (j - i));
        }
        key->push_back(static_cast<int64_t>(word));
      }
    };
    append_bytes(first_op, (released_ + 1) * per_iter * 3, [this](int64_t i) {
      return ops_[i].deps * 2 + (ops_[i].done ? 1 : 0);
    });
    append_bytes((t + 1) * per_iter, (released_ + 1) * per_iter,
                 [this](int64_t slot) {
                   return act_consumers_[slot] * 4 + grad_consumers_[slot];
                 });
  }

  PipeBackend* backend_;
  const PipelineConfig& config_;
  const NnModel& model_;
  const TrainGraph& graph_;
  const CostModel& cost_;
  const LayerAssignment& assignment_;
  PipelineStrategy strategy_;
  int iterations_;
  const int L_;
  const int M_;
  // The op timeline observers hear from: GPU g's ops on lane g.
  int timeline_ = -1;
  const ObserverList* observers_;  // null in an unobserved run

  bool defer_wgrads_ = false;
  bool fast_forward_ = false;
  bool backward_preferred_ = false;
  bool flush_ = true;
  TimeNs update_time_ = 0;
  TimeNs compute_busy_ = 0;

  // Continuous mode: the last iteration whose roots are released, and how
  // many of them have not started.
  int released_ = 0;
  int roots_left_ = 0;
  // The boundary rule: the clean boundaries so far, while no repeat was
  // found, and what the repeat skipped.
  int iters_ended_ = 0;
  bool looking_ = true;
  std::vector<Boundary> boundaries_;
  Skip skip_;

  std::vector<std::array<TimeNs, 3>> duration_;  // by layer, kind; -1: none
  std::vector<Op> ops_;
  std::vector<GpuState> gpus_;
  std::vector<int> iter_ops_left_;
  std::vector<TimeNs> iter_end_;
  std::vector<int> act_consumers_;   // keyed by (t, m, producer layer)
  std::vector<int> grad_consumers_;  // keyed by (t, m, target layer)
  std::vector<int64_t> live_mem_;
  std::vector<int64_t> base_mem_;
  std::vector<int64_t> peak_mem_;
  std::vector<TimeNs> fwd_start_;
  std::vector<TimeNs> wgrad_done_;
};

// The reference producer: every op completion, iteration end and link chunk
// is a SimEngine event. Observed runs take it (it builds the Links
// observers hear from).
class EventBackend final : public PipeBackend {
 public:
  explicit EventBackend(const PipelineConfig& config) : config_(config) {}

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
  bool AppendPending(const std::function<int64_t(PipeEvent)>& /*code*/,
                     std::vector<int64_t>* /*key*/) const override {
    return false;
  }

 private:
  Link* LinkFor(int src, int dst) {
    const auto key = std::make_pair(src, dst);
    auto it = links_.find(key);
    if (it != links_.end()) {
      return it->second.get();
    }
    auto link = std::make_unique<Link>(&engine_, LinkSpecFor(config_, src, dst),
                                       kChunkBytes);
    Link* raw = link.get();
    links_.emplace(key, std::move(link));
    return raw;
  }

  const PipelineConfig& config_;
  PipeSim* sim_ = nullptr;
  SimEngine engine_;
  std::map<std::pair<int, int>, std::unique_ptr<Link>> links_;
};

// Exact message-level executor for unobserved runs. Pipeline
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
// The executor adds the event path's event count of what it steps, skipped
// chunks included, to SimEngine's tally. PipeDream runs may skip whole
// periods of iterations (PipeSim::AtBoundary).
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
      if (link.busy) {
        const ChunkTiming& timing = messages_[link.head].timing;
        total += timing.ChunkEnd(ChunksEnded(link) + 1) - timing.ChunkEnd(1);
      }
    }
    return total;
  }

  // The event path's pending events in (time, seq) order, each as its delay
  // and what it does, where a busy link's pending event is the end of the
  // chunk on its wire; then each link's messages from the head, as their
  // chunk timing and arrival, and the head's start. The event path's
  // pending events, link queues and PipeSim are its whole state, and future
  // events run after pending ones of the same time; the executor reproduces
  // the event path, so this is all of the executor's future too.
  bool AppendPending(const std::function<int64_t(PipeEvent)>& code,
                     std::vector<int64_t>* key) const override {
    std::vector<NodeRef> pending;
    for (const int32_t e : heap_) {
      if (events_[e].message < 0) {
        pending.push_back({e, 0});
      }
    }
    for (const LinkState& link : links_) {
      if (link.busy) {
        const Message& msg = messages_[link.head];
        const int64_t chunk = ChunksEnded(link) + 1;
        pending.push_back(chunk < msg.timing.chunks
                              ? NodeRef{link.head, static_cast<int32_t>(chunk)}
                              : NodeRef{msg.completion, 0});
      }
    }
    std::sort(pending.begin(), pending.end(),
              [this](NodeRef a, NodeRef b) { return Before(a, b); });
    for (const NodeRef ref : pending) {
      key->push_back(Resolve(ref).time - now_);
      if (ref.chunk == 0 && events_[ref.index].message < 0) {
        key->push_back(code(events_[ref.index].what));
      } else {
        const int32_t m = ref.chunk > 0 ? ref.index : events_[ref.index].message;
        key->push_back(-1 - messages_[m].link);  // a chunk end
      }
    }
    for (size_t l = 0; l < links_.size(); ++l) {
      const LinkState& link = links_[l];
      if (link.head < 0) {
        continue;
      }
      key->push_back(static_cast<int64_t>(l));
      key->push_back(messages_[link.head].start - now_);
      for (int32_t m = link.head; m >= 0; m = messages_[m].next) {
        key->push_back(messages_[m].timing.chunks);
        key->push_back(messages_[m].timing.last);
        key->push_back(code(messages_[m].arrival));
      }
    }
    return true;
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
    int32_t completion = -1;  // its completion's index in events_
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

  // The chunk ends of a busy link's head, 1 up to chunks - 1, that ran
  // before the current event.
  int64_t ChunksEnded(const LinkState& link) const {
    const Message& msg = messages_[link.head];
    const ChunkTiming& timing = msg.timing;
    const TimeNs since = now_ - msg.start - timing.latency;
    if (timing.chunks == 1 || since < timing.full) {
      return 0;
    }
    int64_t ended = std::min<int64_t>(since / timing.full, timing.chunks - 1);
    if (ended * timing.full == since &&
        !Before({link.head, static_cast<int32_t>(ended)}, {current_, 0})) {
      --ended;  // that chunk end shares the current event's nanosecond
    }
    return ended;
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
    msg.completion = static_cast<int32_t>(events_.size() - 1);
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

  // The executor reproduces the event path bit for bit (src/hw/observer.h
  // states the rule).
  const ObserverScope scope(trace);
  const bool observed = RunIsObserved();
  std::unique_ptr<PipeBackend> backend;
  if (observed) {
    backend = std::make_unique<EventBackend>(config_);
  } else {
    backend = std::make_unique<PipeExecutor>(config_);
  }
  PipeSim sim(backend.get(), config_, micro_model, graph, cost, assignment,
              strategy, iterations);
  backend->Run(&sim);
  // A continuous run may have moved its horizon in by whole periods
  // (PipeSim::AtBoundary); the counters are integers, so adding the skipped
  // periods back is exact.
  const PipeSim::Skip& skip = sim.skipped();
  const TimeNs final_end = sim.IterEnd(sim.iterations() - 1) + skip.time;
  const TimeNs compute_busy = sim.compute_busy() + skip.compute_busy;
  const TimeNs comm_total = sim.comm_busy() + skip.comm_busy;
  if (replay_stats != nullptr) {
    *replay_stats = StepStats(!observed, sim.iterations(), iterations);
    if (!continuous) {
      // Flush strategies run one iteration: nothing to extrapolate.
      replay_stats->attempted = false;
      replay_stats->fallback_reason = "synchronous";
    }
  }

  PipelineResult result;
  result.assignment = assignment;
  result.weight_versions = continuous ? config_.num_gpus : 1;
  result.per_gpu_peak_memory = sim.peak_memory();
  result.fwd_start = sim.fwd_start();
  result.wgrad_done = sim.wgrad_done();

  TimeNs iter_time;
  if (continuous) {
    OOBP_CHECK_GT(final_end, sim.IterEnd(0));
    iter_time = (final_end - sim.IterEnd(0)) / config_.measured_iterations;
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

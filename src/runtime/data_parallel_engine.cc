#include "src/runtime/data_parallel_engine.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/memory_model.h"
#include "src/hw/gpu.h"
#include "src/hw/link.h"
#include "src/hw/observer.h"
#include "src/runtime/slot_executor.h"
#include "src/sim/engine.h"

namespace oobp {

namespace {
// Nominal per-layer synchronization volume in unit-time mode; the channel
// bandwidth is derived from it, so its absolute value cancels out.
constexpr int64_t kUnitSyncVolumeBytes = 1 << 20;
// The channel sends every transfer in chunks of this many bytes.
constexpr int64_t kChannelChunkBytes = 1 << 20;
// Every fused Horovod transfer takes this one priority level, so the channel
// sends them in submission order (Link breaks priority ties by arrival).
constexpr int kFusionPriority = 1 << 20;
}  // namespace

DataParallelEngine::DataParallelEngine(DataParallelConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GE(config_.num_gpus, 1);
  OOBP_CHECK_LE(config_.num_gpus, config_.cluster.total_gpus());
  OOBP_CHECK_GE(config_.measured_iterations, 1)
      << "DataParallelConfig: measured_iterations must be positive";
  OOBP_CHECK_GE(config_.partition_bytes, 1)
      << "DataParallelConfig: partition_bytes must be positive";
  OOBP_CHECK_GE(config_.unit_time, 0);
  OOBP_CHECK_GT(config_.unit_sync_units, 0.0)
      << "DataParallelConfig: unit_sync_units must be positive";
  OOBP_CHECK_GE(config_.fusion_cycle, 0);
}

int64_t DataParallelEngine::SyncVolume(const NnModel& model, int layer) const {
  const int n = config_.num_gpus;
  if (n <= 1) {
    return 0;
  }
  if (config_.unit_time > 0) {
    // Unit mode: every parameterized layer synchronizes the same nominal
    // volume; ChannelBandwidthGbps is sized so it serializes for
    // unit_sync_units * unit_time.
    return model.layers[layer].has_params() ? kUnitSyncVolumeBytes : 0;
  }
  const int64_t grad = model.layers[layer].param_bytes;
  const int gpn = config_.cluster.gpus_per_node;
  const int nodes = (n + gpn - 1) / gpn;
  double factor = 0.0;
  if (config_.scheme == CommScheme::kHorovod || nodes <= 1) {
    // Flat ring all-reduce: 2 (n-1)/n of the tensor crosses the worker's
    // link in each direction combined.
    factor = 2.0 * (n - 1) / n;
  } else {
    // Hierarchical PS with co-located servers: intra-node aggregation is
    // nearly free over NVLink; the NIC carries the cross-node push + pull.
    factor = 2.0 * (nodes - 1) / nodes;
  }
  return static_cast<int64_t>(static_cast<double>(grad) * factor);
}

double DataParallelEngine::ChannelBandwidthGbps() const {
  if (config_.unit_time > 0) {
    // 1 GB/s moves one byte per nanosecond, so this serializes the nominal
    // unit volume in exactly unit_sync_units * unit_time.
    return static_cast<double>(kUnitSyncVolumeBytes) /
           (config_.unit_sync_units * static_cast<double>(config_.unit_time));
  }
  const int n = config_.num_gpus;
  const int gpn = config_.cluster.gpus_per_node;
  if (n <= gpn) {
    return config_.cluster.intra_node.bandwidth_gbps;
  }
  // The node's NIC is shared by its workers; a blocking switch fabric
  // further caps each worker's cross-node share. SyncVolume counts push +
  // pull bytes against a single serialized channel, but the NIC is full
  // duplex, so pushes and pulls partially overlap — the 1.4x duplex factor
  // calibrates the effective rate to the paper's measured 350 ms first-
  // layer sync for ResNet-50 on 16 V100s (Section 8.3).
  constexpr double kDuplexFactor = 1.4;
  double bw = config_.cluster.inter_node.bandwidth_gbps / gpn * kDuplexFactor;
  if (config_.cluster.switch_bandwidth_gbps > 0.0) {
    bw = std::min(bw,
                  config_.cluster.switch_bandwidth_gbps / n * kDuplexFactor);
  }
  return bw;
}

TimeNs DataParallelEngine::IdealSyncTime(const NnModel& model, int layer) const {
  const int64_t volume = SyncVolume(model, layer);
  if (volume == 0) {
    return 0;
  }
  return static_cast<TimeNs>(static_cast<double>(volume) /
                             ChannelBandwidthGbps());
}

namespace {

class Driver;

// The clock, GPU and channel a Driver runs on. DpEventBackend is the
// reference: a SimEngine driving a Gpu with one stream and a Link.
// DpExecutor steps the same events in the same order in five fixed slots
// (DESIGN.md §6.3).
class DpBackend {
 public:
  virtual ~DpBackend() = default;
  // Starts `driver` and runs until no event is pending, or, on the
  // executor, until an iteration boundary repeats an earlier one
  // (Driver::Repeat).
  virtual void Run(Driver* driver) = 0;
  virtual TimeNs now() const = 0;
  // Runs Driver::OnIssue `delay` after now.
  virtual void ScheduleIssue(TimeNs delay) = 0;
  // Enqueues the kernel of `op` in iteration `iter` on the GPU's one
  // stream. Kernels are numbered from 0 in enqueue order; kernel k's
  // completion runs Driver::OnKernelDone(k).
  virtual void Enqueue(const TrainOp& op, int iter, const KernelCost& cost) = 0;
  // Sends `bytes` on the channel at `priority` (lower first); the
  // completion runs Driver::OnTransferDone(token). `name` labels the
  // transfer for observers.
  virtual void Transfer(int64_t bytes, int priority, std::string name,
                        int token) = 0;
  // Runs Driver::OnFusionTimer `delay` after now.
  virtual void ScheduleFusionTimer(TimeNs delay) = 0;
  // Link::busy_time of the channel at the end of the run.
  virtual TimeNs channel_busy() const = 0;
};

// One worker's training loop: the op sequence, the per-layer forward gates,
// BytePS partitioning and Horovod fusion. Transfer completions come back as
// integer tokens: a BytePS partition carries its (iteration, layer) sync
// slot, a fused Horovod transfer its flush index.
class Driver {
 public:
  Driver(DpBackend* backend, const NnModel& model, const CostModel& cost,
         const DataParallelEngine& parent, const DataParallelConfig& config,
         const std::vector<TrainOp>& backprop, int iterations)
      : backend_(backend),
        config_(config),
        L_(model.num_layers()),
        iterations_(iterations) {
    // Per-iteration op sequence: backprop (with updates folded into the
    // synchronization completion), then the next forward pass.
    sequence_ = backprop;
    for (int i = 0; i < L_; ++i) {
      sequence_.push_back({TrainOpType::kForward, i});
    }
    // The kernel cost of a sequence position is iteration-invariant; price
    // each position once instead of on every issue.
    seq_cost_.reserve(sequence_.size());
    for (const TrainOp& op : sequence_) {
      KernelCost kc = cost.Cost(model.layers[op.layer], op.type);
      if (config_.unit_time > 0) {
        kc.duration = config_.unit_time;
        kc.issue_latency = 0;
      }
      seq_cost_.push_back(kc);
      // Every kernel of every iteration is issued once.
      compute_busy_ += iterations * kc.duration;
    }
    sync_volume_.resize(L_);
    for (int i = 0; i < L_; ++i) {
      sync_volume_[i] = parent.SyncVolume(model, i);
    }
    // Layers without weights never synchronize.
    sync_done_.assign(static_cast<size_t>(iterations) * L_, 0);
    for (int t = 0; t < iterations; ++t) {
      for (int i = 0; i < L_; ++i) {
        if (!model.layers[i].has_params()) {
          sync_done_[SyncSlot(t, i)] = 1;
        }
      }
    }
    if (config_.scheme == CommScheme::kBytePS) {
      parts_left_.assign(sync_done_.size(), 0);
    }
    iter_end_.assign(iterations, 0);
  }

  void Start() { IssueNext(); }

  // The issue event: the op at the sequence cursor enters the stream.
  void OnIssue() {
    backend_->Enqueue(sequence_[pos_], iter_, seq_cost_[pos_]);
    if (++pos_ == sequence_.size()) {
      pos_ = 0;
      ++iter_;
    }
    IssueNext();
  }

  // Kernels run in issue order, so kernel k is sequence position k % S of
  // iteration k / S. Returns true when the kernel, F_{L-1}, ends its
  // iteration: the iteration boundary.
  bool OnKernelDone(int64_t kernel) {
    const int64_t S = static_cast<int64_t>(sequence_.size());
    const int t = static_cast<int>(kernel / S);
    const TrainOp op = sequence_[kernel % S];
    if (op.type == TrainOpType::kWeightGrad && config_.num_gpus > 1) {
      StartSync(t, op.layer);
    }
    if (kernel % S != S - 1) {
      return false;
    }
    iter_end_[t] = backend_->now();
    return true;
  }

  void OnTransferDone(int token) {
    if (config_.scheme == CommScheme::kBytePS) {
      if (--parts_left_[token] == 0) {
        OnSyncDone(token);
      }
      return;
    }
    const size_t begin = token == 0 ? 0 : flush_end_[token - 1];
    for (size_t i = begin; i < flush_end_[token]; ++i) {
      OnSyncDone(fused_[i]);
    }
  }

  void OnFusionTimer() {
    fusion_timer_armed_ = false;
    FlushFusion();
  }

  TimeNs IterEnd(int t) const { return iter_end_[t]; }
  TimeNs compute_busy() const { return compute_busy_; }
  int stepped() const { return stepped_; }  // iterations stepped

  // At an iteration boundary: the cursor still has items to issue, so the
  // run's horizon has cut nothing yet, and no tensor waits in the fusion
  // buffer. See DpExecutor::AtBoundary.
  bool Settled() const { return iter_ < iterations_ && fusion_bytes_ == 0; }

  // Boundary b repeats boundary a, and the run stops stepping: every later
  // iteration is a copy of the one p = b - a before it, shifted by the time
  // between the two.
  void Repeat(int a, int b) {
    const TimeNs shift = iter_end_[b] - iter_end_[a];
    for (int t = b + 1; t < iterations_; ++t) {
      iter_end_[t] = iter_end_[t - (b - a)] + shift;
    }
    stepped_ = b + 1;
  }

 private:
  int SyncSlot(int t, int layer) const { return t * L_ + layer; }

  void IssueNext() {
    if (iter_ >= iterations_) {
      return;
    }
    const TrainOp& op = sequence_[pos_];
    // Gate: F_i requires layer i's parameters for this iteration.
    if (op.type == TrainOpType::kForward && config_.num_gpus > 1 &&
        !sync_done_[SyncSlot(iter_, op.layer)]) {
      waiting_slot_ = SyncSlot(iter_, op.layer);
      return;  // resumed by OnSyncDone
    }
    waiting_slot_ = -1;
    backend_->ScheduleIssue(
        config_.precompiled_issue ? 0 : seq_cost_[pos_].issue_latency);
  }

  void StartSync(int t, int layer) {
    const int64_t volume = sync_volume_[layer];
    const int slot = SyncSlot(t, layer);
    if (volume <= 0) {
      OnSyncDone(slot);
      return;
    }
    if (config_.scheme == CommScheme::kBytePS) {
      // Priority by layer index: the first layers are needed first by the
      // next forward pass (ByteScheduler/BytePS semantics). Tensors are
      // split into partitions so large transfers do not monopolize the
      // committed window.
      const int64_t part = config_.partition_bytes;
      const int parts = static_cast<int>((volume + part - 1) / part);
      parts_left_[slot] = parts;
      for (int p = 0; p < parts; ++p) {
        const int64_t bytes = std::min<int64_t>(part, volume - p * part);
        backend_->Transfer(
            bytes, layer,
            RunIsObserved() ? StrFormat("sync[%d].%d#%d", layer, p, t)
                            : std::string(),
            slot);
      }
      return;
    }
    // Horovod: accumulate into the fusion buffer; flush on size or timer.
    fused_.push_back(slot);
    fusion_bytes_ += volume;
    if (fusion_bytes_ >= config_.fusion_buffer_bytes) {
      FlushFusion();
    } else if (!fusion_timer_armed_) {
      fusion_timer_armed_ = true;
      backend_->ScheduleFusionTimer(config_.fusion_cycle);
    }
  }

  // Sends the buffered tensors as one transfer; flush k covers
  // fused_[flush_end_[k - 1], flush_end_[k]).
  void FlushFusion() {
    const size_t begin = flush_end_.empty() ? 0 : flush_end_.back();
    if (begin == fused_.size()) {
      return;
    }
    const int token = static_cast<int>(flush_end_.size());
    flush_end_.push_back(fused_.size());
    const int64_t bytes = fusion_bytes_;
    fusion_bytes_ = 0;
    backend_->Transfer(
        bytes, kFusionPriority,
        RunIsObserved()
            ? StrFormat("fusion(%zu tensors)", fused_.size() - begin)
            : std::string(),
        token);
  }

  void OnSyncDone(int slot) {
    sync_done_[slot] = 1;
    if (waiting_slot_ == slot) {
      IssueNext();
    }
  }

  DpBackend* backend_;
  const DataParallelConfig& config_;
  const int L_;
  const int iterations_;

  std::vector<TrainOp> sequence_;
  std::vector<KernelCost> seq_cost_;  // cost of sequence_[i], unit-adjusted
  std::vector<int64_t> sync_volume_;  // per layer
  size_t pos_ = 0;
  int iter_ = 0;
  int waiting_slot_ = -1;  // the sync slot a gated forward waits on
  TimeNs compute_busy_ = 0;  // every kernel's duration, summed
  std::vector<char> sync_done_;  // by sync slot t * L + layer
  std::vector<TimeNs> iter_end_;
  int stepped_ = iterations_;

  std::vector<int> parts_left_;  // BytePS partitions in flight, by slot
  std::vector<int> fused_;       // Horovod: every slot fused, in order
  std::vector<size_t> flush_end_;
  int64_t fusion_bytes_ = 0;
  bool fusion_timer_armed_ = false;
};

// The reference producer: every issue, kernel begin, fluid wake, channel
// chunk and fusion timer is a SimEngine event. Observed runs take it (it
// builds the Gpu and Link observers hear from).
class DpEventBackend final : public DpBackend {
 public:
  DpEventBackend(const GpuSpec& gpu, const LinkSpec& channel,
                 int64_t commit_window_bytes)
      : gpu_(&engine_, gpu),
        channel_(&engine_, channel, kChannelChunkBytes, commit_window_bytes),
        stream_(gpu_.CreateStream(0)) {}

  void Run(Driver* driver) override {
    driver_ = driver;
    gpu_.AddKernelDoneListener(
        [this](KernelId id) { driver_->OnKernelDone(id); });
    driver->Start();
    engine_.Run();
  }
  TimeNs now() const override { return engine_.now(); }
  void ScheduleIssue(TimeNs delay) override {
    engine_.ScheduleAfter(delay, [this] { driver_->OnIssue(); });
  }
  void Enqueue(const TrainOp& op, int iter, const KernelCost& cost) override {
    KernelDesc desc;
    desc.name = StrFormat("%s[%d]#%d", TrainOpTypeName(op.type), op.layer, iter);
    desc.category = TrainOpTypeName(op.type);
    desc.solo_duration = cost.duration;
    desc.thread_blocks = cost.thread_blocks;
    gpu_.Enqueue(stream_, std::move(desc));
  }
  void Transfer(int64_t bytes, int priority, std::string name,
                int token) override {
    channel_.Transfer(bytes, priority, std::move(name),
                      [this, token] { driver_->OnTransferDone(token); });
  }
  void ScheduleFusionTimer(TimeNs delay) override {
    engine_.ScheduleAfter(delay, [this] { driver_->OnFusionTimer(); });
  }
  TimeNs channel_busy() const override { return channel_.busy_time(); }

 private:
  SimEngine engine_;
  Gpu gpu_;
  Link channel_;
  StreamId stream_;
  Driver* driver_ = nullptr;
};

// Exact executor for unobserved runs. The worker's GPU runs one
// in-order stream with one running kernel, the channel one chunk at a
// time, the driver one pending issue and at most one armed fusion timer,
// so each of the event path's five event kinds has at most one pending
// event: they live in five slots and run in SimEngine's (time, seq) order.
// Kernels step through the fluid model the single-GPU executor uses
// (StreamFluid) and the channel through Link's own LinkQueue, so the
// executor steps the event path's events in its order, and adds the ones it
// steps to SimEngine's tally. It stops at the first iteration boundary that
// repeats an earlier one (AtBoundary) and extrapolates the rest.
class DpExecutor final : public DpBackend {
 public:
  DpExecutor(const GpuSpec& gpu, const LinkSpec& channel,
             int64_t commit_window_bytes, int iterations)
      : iterations_(iterations),
        exec_overhead_(gpu.kernel_exec_overhead),
        fluid_(static_cast<double>(gpu.slot_capacity()), nullptr),
        channel_(channel, kChannelChunkBytes, commit_window_bytes) {}

  void Run(Driver* driver) override {
    driver_ = driver;
    driver->Start();
    const auto finish = [this](int kernel) { Finish(kernel); };
    bool repeated = false;
    for (int e = slots_.Next(); e >= 0; e = slots_.Next()) {
      switch (e) {
        case kIssue:
          driver_->OnIssue();
          break;
        case kBegin: {
          // Gpu::BeginExecution of the stream's head.
          const QueuedKernel& k = queue_[head_];
          slots_.Reschedule(kWake,
                            fluid_.Begin(0, begun_++,
                                         fluid_.DemandOf(k.solo_duration,
                                                         k.thread_blocks),
                                         now(), finish));
          break;
        }
        case kWake:
          slots_.Reschedule(kWake, fluid_.Wake(now(), finish));
          break;
        case kChunk: {
          // Link's chunk end: a finished message completes, then the next
          // chunk starts.
          LinkQueue::Completion done;
          if (channel_.EndChunk(&done)) {
            driver_->OnTransferDone(tokens_[done.id - 1]);
          }
          StartChunk();
          break;
        }
        case kTimer:
          driver_->OnFusionTimer();
          break;
      }
      if (boundary_ && AtBoundary()) {
        repeated = true;
        break;
      }
    }
    SimEngine::AddProcessedEvents(slots_.processed());
    if (!repeated) {
      busy_ = channel_.busy_time();
    }
  }

  TimeNs now() const override { return slots_.now(); }
  void ScheduleIssue(TimeNs delay) override {
    slots_.Schedule(kIssue, now() + delay);
  }
  // Gpu::Enqueue.
  void Enqueue(const TrainOp& /*op*/, int /*iter*/,
               const KernelCost& cost) override {
    OOBP_CHECK_GE(cost.duration, 0);
    OOBP_CHECK_GT(cost.thread_blocks, 0.0);
    queue_.push_back({cost.duration, cost.thread_blocks});
    MaybeDispatch();
  }
  // Link::Transfer.
  void Transfer(int64_t bytes, int priority, std::string /*name*/,
                int token) override {
    const LinkQueue::TransferId id = channel_.Submit(bytes, priority);
    OOBP_CHECK_EQ(id, static_cast<LinkQueue::TransferId>(tokens_.size()) + 1);
    tokens_.push_back(token);
    StartChunk();
  }
  void ScheduleFusionTimer(TimeNs delay) override {
    slots_.Schedule(kTimer, now() + delay);
  }
  TimeNs channel_busy() const override { return busy_; }

 private:
  enum Slot { kIssue, kBegin, kWake, kChunk, kTimer, kSlots };
  struct QueuedKernel {
    TimeNs solo_duration;
    double thread_blocks;
  };
  // The state at an iteration boundary that the rest of the run reads (see
  // AtBoundary), and the channel time spent by then.
  struct Boundary {
    bool clean = false;
    size_t queued = 0;  // kernels issued past the boundary
    EventSlots<kSlots> ahead;
    TimeNs busy = 0;
  };

  // Gpu::MaybeDispatch: the head begins after the SM setup gap.
  void MaybeDispatch() {
    if (dispatched_ || head_ == queue_.size()) {
      return;
    }
    dispatched_ = true;
    slots_.Schedule(kBegin, now() + exec_overhead_);
  }

  // Gpu::FinishKernel: the stream drops its head, the driver's done
  // listener runs, then the next head dispatches.
  void Finish(int kernel) {
    if (++head_ == queue_.size()) {
      queue_.clear();
      head_ = 0;
    }
    dispatched_ = false;
    boundary_ = driver_->OnKernelDone(kernel);
    MaybeDispatch();
  }

  // Link::RefillAndStart.
  void StartChunk() {
    const TimeNs duration = channel_.RefillAndStart(now());
    if (duration >= 0) {
      slots_.Schedule(kChunk, now() + duration);
    }
  }

  // Called after the step that completed F_{L-1}(b), for the boundary b
  // after the ones recorded so far. F_i(b) waited on layer i's sync of
  // iteration b, and no weight gradient of iteration b + 1 has completed,
  // so every sync started has completed: the channel is idle, its backlog
  // and commit window empty, and later iterations' sync slots and BytePS
  // partitions are as the run began. The boundary is clean when that shows
  // (the channel idle, the fusion buffer empty), no kernel drains, and the
  // driver still has items to issue. Then the stream holds the kernels
  // issued past the boundary, in sequence order from the head; the driver's
  // cursor is that many positions past it, and its forward gate waits iff
  // no issue is pending. So the pending events seen from the boundary
  // (EventSlots::SameAhead: the issue, the head's begin and an armed fusion
  // timer) and the issued count are the whole state the rest of the run
  // reads. Returns true, with the run extrapolated, when that state repeats
  // any earlier clean boundary's: every later iteration is then a copy of
  // the one a period earlier.
  bool AtBoundary() {
    boundary_ = false;
    const int b = static_cast<int>(boundaries_.size());
    Boundary cur;
    cur.clean = fluid_.idle() && !channel_.busy() && channel_.pending() == 0 &&
                driver_->Settled();
    cur.queued = queue_.size() - head_;
    cur.ahead = slots_;
    cur.busy = channel_.busy_time();
    boundaries_.push_back(cur);
    for (int a = 0; a < b && cur.clean; ++a) {
      const Boundary& earlier = boundaries_[a];
      if (earlier.clean && earlier.queued == cur.queued &&
          slots_.SameAhead(earlier.ahead)) {
        driver_->Repeat(a, b);
        std::vector<TimeNs> busy(iterations_);
        for (int t = 0; t < iterations_; ++t) {
          busy[t] = t <= b ? boundaries_[t].busy
                           : busy[t - (b - a)] + (cur.busy - earlier.busy);
        }
        busy_ = busy.back();
        return true;
      }
    }
    return false;
  }

  const int iterations_;
  const TimeNs exec_overhead_;
  EventSlots<kSlots> slots_;
  StreamFluid<1> fluid_;
  LinkQueue channel_;
  Driver* driver_ = nullptr;

  // The stream: queue_[head_] is the oldest unfinished kernel.
  std::vector<QueuedKernel> queue_;
  size_t head_ = 0;
  bool dispatched_ = false;
  int begun_ = 0;  // kernels that left their setup gap; the head's number

  std::vector<int> tokens_;  // by channel transfer id - 1

  // Boundaries and the outcome.
  bool boundary_ = false;  // the step completed an iteration
  std::vector<Boundary> boundaries_;
  TimeNs busy_ = 0;  // the channel's busy time at the end of the run
};

}  // namespace

TrainMetrics DataParallelEngine::Run(const NnModel& model,
                                     const std::vector<TrainOp>& backprop,
                                     TraceRecorder* trace,
                                     ReplayStats* replay_stats) const {
  const TrainGraph graph(&model);
  OOBP_CHECK(graph.ValidateBackpropOrder(backprop));
  const CostModel cost(config_.cluster.gpu, config_.profile);
  const int iterations = 1 + config_.measured_iterations;

  GpuSpec gpu_spec = config_.cluster.gpu;
  if (config_.unit_time > 0) {
    gpu_spec.kernel_exec_overhead = 0;  // ops cost exactly one unit
  }

  // Channel: the worker's share of the cluster interconnect. Horovod's flat
  // ring also pays per-step coordination latency proportional to the ring
  // size.
  LinkSpec channel_spec;
  channel_spec.name = "dp-channel";
  channel_spec.bandwidth_gbps = ChannelBandwidthGbps();
  const TimeNs base_latency = config_.num_gpus <= config_.cluster.gpus_per_node
                                  ? config_.cluster.intra_node.latency
                                  : config_.cluster.inter_node.latency;
  channel_spec.latency =
      config_.scheme == CommScheme::kHorovod
          ? base_latency * 2 * std::max(1, config_.num_gpus - 1)
          : base_latency;
  if (config_.unit_time > 0) {
    channel_spec.latency = 0;  // unit schedules count serialization only
  }
  const int64_t commit_window = config_.scheme == CommScheme::kBytePS
                                    ? config_.commit_window_bytes
                                    : 0;

  // The executor reproduces the event path bit for bit (src/hw/observer.h
  // states the rule).
  const ObserverScope scope(trace);
  const bool observed = RunIsObserved();
  std::unique_ptr<DpBackend> backend;
  if (observed) {
    backend = std::make_unique<DpEventBackend>(gpu_spec, channel_spec,
                                               commit_window);
  } else {
    backend = std::make_unique<DpExecutor>(gpu_spec, channel_spec,
                                           commit_window, iterations);
  }
  Driver driver(backend.get(), model, cost, *this, config_, backprop,
                iterations);
  backend->Run(&driver);
  if (replay_stats != nullptr) {
    *replay_stats = StepStats(!observed, driver.stepped(), iterations);
  }

  TrainMetrics metrics;
  const TimeNs t0 = driver.IterEnd(0);
  const TimeNs t1 = driver.IterEnd(iterations - 1);
  OOBP_CHECK_GT(t1, 0) << "training did not complete";
  metrics.iteration_time = (t1 - t0) / config_.measured_iterations;
  metrics.throughput = static_cast<double>(model.batch) * config_.num_gpus /
                       ToSec(metrics.iteration_time);
  metrics.gpu_utilization =
      static_cast<double>(driver.compute_busy()) / static_cast<double>(t1);
  if (driver.compute_busy() > 0) {
    metrics.comm_comp_ratio = static_cast<double>(backend->channel_busy()) /
                              static_cast<double>(driver.compute_busy());
  }
  const MemoryPeak mem = EstimateBackpropPeak(model, backprop);
  metrics.peak_memory_bytes = static_cast<int64_t>(
      static_cast<double>(mem.peak_total()) * config_.profile.allocator_overhead);
  metrics.oom = metrics.peak_memory_bytes > config_.cluster.gpu.mem_bytes;
  return metrics;
}

}  // namespace oobp

#include "src/serve/replica_driver.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/hw/observer.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/runtime/slot_executor.h"
#include "src/sim/engine.h"

namespace oobp {

namespace {

// Every replica GPU creates its streams in this order (serve_engine.h):
// training main at priority 0, the ooo sub stream at priority 2, inference
// at priority 1. The priorities are distinct ranks, so they also index each
// stream's job in the executor's StreamFluid.
constexpr StreamId kTrainMainStream = 0;
constexpr StreamId kTrainSubStream = 1;
constexpr StreamId kServeStream = 2;
constexpr int kStreamPriority[3] = {0, 2, 1};

// What a run fixes before its first event, shared by the driver and the
// backend.
struct ReplicaInputs {
  const FleetConfig& config;
  bool fleet;
  int replicas;
  std::vector<TimeNs> arrivals;
  // Inference kernel costs per batch size, shared by every replica (one
  // captured graph per bucket, identical models across the fleet).
  std::vector<std::vector<KernelCost>> batch_costs;
  // The training issue plan every replica launches; null when serve-only.
  // Stream ids match because every replica creates streams in one order.
  const TrainIssuePlan* plan;
};

class ReplicaDriver;

// The clock and the replica GPUs a ReplicaDriver runs on, and the timers it
// sets. ReplicaEventBackend is the reference; the ReplicaExecutor steps the
// same events in the same order (DESIGN.md §6.3).
class ReplicaBackend {
 public:
  virtual ~ReplicaBackend() = default;
  // Starts `driver` and runs until no event is pending.
  virtual void Run(ReplicaDriver* driver) = 0;
  virtual TimeNs now() const = 0;
  // Schedules every arrival: arrival i runs ReplicaDriver::OnArrival(i).
  virtual void ScheduleArrivals() = 0;
  // Schedules replica `r`'s training launch: one graph-launch latency, then
  // the whole issue plan enqueued with its dependencies.
  virtual void LaunchTraining(int r) = 0;
  // Batch `batch` launches like a captured graph: one graph-launch latency,
  // then `costs` (one kernel per layer) land on replica `r`'s inference
  // stream. When its last kernel completes, ReplicaDriver::OnBatchDone runs.
  virtual void LaunchBatch(int r, size_t batch,
                           const std::vector<KernelCost>& costs) = 0;
  // The driver's timers. Setting one replaces its pending event, or clears
  // it when `t` is negative. Replica `r`'s batching deadline runs
  // ReplicaDriver::OnDeadline(r), its warm-up ReplicaDriver::OnWarm(r), and
  // the autoscaler's tick ReplicaDriver::OnTick().
  virtual void SetDeadline(int r, TimeNs t) = 0;
  virtual void SetWarmup(int r, TimeNs t) = 0;
  virtual void SetTick(TimeNs t) = 0;
  // After Run, in co-run mode: replica `r`'s per-iteration training end
  // times and its SM busy integral.
  virtual std::vector<TimeNs> IterationEnds(int r) const = 0;
  virtual double BusyIntegral(int r) const = 0;
};

// Every decision of a serving run: request and batch bookkeeping, each
// replica's BatchQueue, the router, the fleet's ScalePolicy, and the
// metrics. The backend only keeps the clock, the devices and the timers.
class ReplicaDriver {
 public:
  ReplicaDriver(ReplicaBackend* backend, const ReplicaInputs& in)
      : backend_(backend),
        in_(in),
        records_(in.arrivals.size()),
        done_batches_(static_cast<size_t>(in.replicas), 0),
        done_requests_(static_cast<size_t>(in.replicas), 0),
        batchers_(static_cast<size_t>(in.replicas),
                  BatchQueue(in.config.batcher)) {
    for (size_t i = 0; i < records_.size(); ++i) {
      records_[i].arrival = in.arrivals[i];
    }
    if (in.fleet) {
      replica_of_.assign(records_.size(), -1);
      // Backlog estimate: queued requests plus the in-flight batches' worth
      // of work still on the device.
      router_.emplace(in.config.router, [this](int r) {
        const BatchQueue& b = batchers_[static_cast<size_t>(r)];
        return static_cast<int64_t>(b.queue_depth()) +
               static_cast<int64_t>(b.inflight()) *
                   static_cast<int64_t>(in_.config.batcher.max_batch);
      });
      scaler_.emplace(in.config.autoscaler, /*now=*/0);
    }
  }

  // The setup draws. FleetEngine schedules the replicas' training launches,
  // then the arrivals, then the first autoscaler tick; ServeEngine
  // scheduled its arrivals before its training launch.
  void Start() {
    if (!in_.fleet) {
      backend_->ScheduleArrivals();
    }
    if (in_.plan != nullptr) {
      for (int r = 0; r < in_.replicas; ++r) {
        backend_->LaunchTraining(r);
      }
    }
    if (in_.fleet) {
      backend_->ScheduleArrivals();
      backend_->SetTick(scaler_->NextTick(backend_->now(), in_.config.horizon));
    }
  }

  // Request `i` arrives; returns the replica whose batcher it joined.
  int OnArrival(size_t i) {
    int r = 0;
    if (router_) {
      r = router_->Route(scaler_->routable_set());
      replica_of_[i] = r;
    }
    batchers_[static_cast<size_t>(r)].Push(static_cast<int64_t>(i),
                                           backend_->now());
    Release(r);
    return r;
  }

  void OnDeadline(int r) { Release(r); }

  // `exec_start`: when the batch's first kernel began executing. Frees the
  // batch's inflight slot.
  void OnBatchDone(size_t batch, TimeNs exec_start) {
    const Batch& b = batches_[batch];
    const TimeNs done = backend_->now();
    for (size_t k = b.begin; k < b.begin + b.size; ++k) {
      RequestRecord& rec = records_[static_cast<size_t>(members_[k])];
      rec.exec_start = exec_start;
      rec.done = done;
    }
    const int r = b.replica;
    ++done_batches_[static_cast<size_t>(r)];
    done_requests_[static_cast<size_t>(r)] += static_cast<int64_t>(b.size);
    batchers_[static_cast<size_t>(r)].Done();
    Release(r);
  }

  // The autoscaler's tick: one control step, whose warm-up is drawn before
  // the next tick.
  void OnTick() {
    const TimeNs now = backend_->now();
    const ScalePolicy::Step step =
        scaler_->Evaluate(now, [this] { return Queued(); });
    if (step.cancel >= 0) {
      backend_->SetWarmup(step.cancel, -1);
    }
    if (step.warm >= 0) {
      backend_->SetWarmup(step.warm, now + in_.config.autoscaler.warmup);
    }
    backend_->SetTick(scaler_->NextTick(now, in_.config.horizon));
  }

  void OnWarm(int r) { scaler_->BecomeUp(r, backend_->now()); }

  FleetMetrics Metrics(const NnModel* train_model,
                       const IterationSchedule* train_schedule,
                       int train_iterations) const;

 private:
  // members_[begin, begin + size) are the batch's request ids.
  struct Batch {
    int replica;
    size_t begin;
    size_t size;
  };

  // Replica `r`'s batcher releases what its rule allows now; its deadline
  // is drawn after the batches it dispatched.
  void Release(int r) {
    backend_->SetDeadline(
        r, batchers_[static_cast<size_t>(r)].Release(
               backend_->now(), [this, r](const std::vector<int64_t>& ids) {
                 Dispatch(r, ids);
               }));
  }

  void Dispatch(int r, const std::vector<int64_t>& ids) {
    const size_t batch = batches_.size();
    batches_.push_back({r, members_.size(), ids.size()});
    members_.insert(members_.end(), ids.begin(), ids.end());
    const TimeNs now = backend_->now();
    for (int64_t id : ids) {
      RequestRecord& rec = records_[static_cast<size_t>(id)];
      rec.dispatch = now;
      rec.batch_size = static_cast<int>(ids.size());
    }
    backend_->LaunchBatch(r, batch, in_.batch_costs[ids.size()]);
  }

  // The autoscaler's depth sample: requests queued on routable replicas.
  int64_t Queued() const {
    int64_t queued = 0;
    for (int r : scaler_->routable_set()) {
      queued += batchers_[static_cast<size_t>(r)].queue_depth();
    }
    return queued;
  }

  void FleetServeMetrics(FleetMetrics* metrics) const;

  ReplicaBackend* backend_;
  const ReplicaInputs& in_;
  std::vector<RequestRecord> records_;
  std::vector<int> replica_of_;  // fleet runs: the replica each request took
  std::vector<Batch> batches_;
  std::vector<int64_t> members_;
  std::vector<int64_t> done_batches_;   // completed batches per replica
  std::vector<int64_t> done_requests_;  // completed requests per replica
  std::vector<BatchQueue> batchers_;    // per replica
  std::optional<FleetRouter> router_;   // fleet only
  std::optional<ScalePolicy> scaler_;   // fleet only
};

FleetMetrics ReplicaDriver::Metrics(const NnModel* train_model,
                                    const IterationSchedule* train_schedule,
                                    int train_iterations) const {
  const FleetConfig& config = in_.config;
  const int replicas = in_.replicas;
  FleetMetrics metrics;
  int64_t total_batches = 0;
  for (int64_t b : done_batches_) {
    total_batches += b;
  }
  metrics.serve = ComputeServeMetrics(records_, total_batches, config.horizon,
                                      config.slo);
  if (in_.fleet) {
    FleetServeMetrics(&metrics);
  }

  // -- Training metrics (co-run mode): the replica mean and spread ---------
  if (train_model != nullptr) {
    const int measured = train_iterations - 1;  // 1 warm-up
    TimeNs sum_iter = 0;
    TimeNs min_iter = 0, max_iter = 0;
    double sum_util = 0.0;
    const double capacity = static_cast<double>(config.gpu.slot_capacity());
    for (int r = 0; r < replicas; ++r) {
      const std::vector<TimeNs> iter_end = backend_->IterationEnds(r);
      const TimeNs window = iter_end[train_iterations - 1] - iter_end[0];
      const TimeNs iter = window / measured;
      sum_iter += iter;
      if (r == 0) {
        min_iter = max_iter = iter;
      } else {
        min_iter = std::min(min_iter, iter);
        max_iter = std::max(max_iter, iter);
      }
      if (window > 0) {
        // Device-wide utilization over the training window (includes the
        // inference kernels sharing the device — that is the point).
        sum_util += backend_->BusyIntegral(r) /
                    (capacity *
                     static_cast<double>(iter_end[train_iterations - 1]));
      }
    }
    TrainMetrics& train = metrics.train;
    train.iteration_time = sum_iter / replicas;
    train.throughput = static_cast<double>(train_model->batch) /
                       ToSec(train.iteration_time);
    train.gpu_utilization = sum_util / replicas;
    const MemoryPeak mem = EstimateBackpropPeak(*train_model, *train_schedule);
    train.peak_memory_bytes =
        static_cast<int64_t>(static_cast<double>(mem.peak_total()) *
                             config.profile.allocator_overhead);
    train.oom = train.peak_memory_bytes > config.gpu.mem_bytes;
    metrics.train_iter_min = min_iter;
    metrics.train_iter_max = max_iter;
  }
  return metrics;
}

void ReplicaDriver::FleetServeMetrics(FleetMetrics* metrics) const {
  const FleetConfig& config = in_.config;
  const int replicas = in_.replicas;
  metrics->replica_completed = done_requests_;

  // Per-replica views over the records bucketed by replica, in request
  // order (a replica with no completion keeps the kNoSample percentile
  // sentinel).
  std::vector<std::vector<RequestRecord>> by_replica(
      static_cast<size_t>(replicas));
  for (size_t i = 0; i < records_.size(); ++i) {
    OOBP_CHECK_GE(replica_of_[i], 0) << "request " << i << " never routed";
    by_replica[static_cast<size_t>(replica_of_[i])].push_back(records_[i]);
  }
  metrics->per_replica.resize(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    const size_t index = static_cast<size_t>(r);
    metrics->per_replica[index] =
        ComputeServeMetrics(by_replica[index], done_batches_[index],
                            config.horizon, config.slo);
  }

  // Autoscaler outcome + time-weighted routable stats over [0, horizon].
  metrics->scale_ups = scaler_->scale_ups();
  metrics->scale_downs = scaler_->scale_downs();
  metrics->replica_timeline = scaler_->timeline();
  metrics->router_decisions = router_->decisions();
  {
    const auto& tl = metrics->replica_timeline;
    OOBP_CHECK(!tl.empty());
    metrics->min_routable = tl[0].second;
    metrics->max_routable = tl[0].second;
    double weighted = 0.0;
    for (size_t i = 0; i < tl.size(); ++i) {
      metrics->min_routable = std::min(metrics->min_routable, tl[i].second);
      metrics->max_routable = std::max(metrics->max_routable, tl[i].second);
      const TimeNs begin = std::min(tl[i].first, config.horizon);
      const TimeNs end = i + 1 < tl.size()
                             ? std::min(tl[i + 1].first, config.horizon)
                             : config.horizon;
      weighted += static_cast<double>(end - begin) *
                  static_cast<double>(tl[i].second);
    }
    metrics->mean_routable = weighted / static_cast<double>(config.horizon);
  }

  // Load imbalance: max / mean completions over replicas that were ever
  // routable. The autoscaler's up-set is always an index prefix, so
  // max_routable identifies exactly which replicas ever served.
  int64_t max_completed = 0, sum_completed = 0;
  const int ever = metrics->max_routable;
  for (int r = 0; r < ever; ++r) {
    const int64_t c = metrics->replica_completed[static_cast<size_t>(r)];
    max_completed = std::max(max_completed, c);
    sum_completed += c;
  }
  if (ever > 0 && sum_completed > 0) {
    metrics->imbalance = static_cast<double>(max_completed) * ever /
                         static_cast<double>(sum_completed);
  }
}

// The reference producer: every arrival, batching deadline, graph launch,
// kernel begin, fluid wake, autoscaler tick and warm-up is a SimEngine
// event on one engine shared by every replica. Observed runs take it (it
// builds the Gpus and launchers observers hear from), so it labels every
// inference kernel with its layer and batch.
class ReplicaEventBackend final : public ReplicaBackend {
 public:
  explicit ReplicaEventBackend(const ReplicaInputs& in)
      : in_(in), replicas_(static_cast<size_t>(in.replicas)) {
    const FleetConfig& config = in.config;
    // The whole arrival trace is scheduled up front, and each replica keeps
    // a small bounded set of batcher/launcher/GPU events pending; pre-sizing
    // avoids mid-run growth (capacity only, no effect on results).
    engine_.Reserve(in.arrivals.size() + 16 * replicas_.size());
    for (int r = 0; r < in.replicas; ++r) {
      Replica& rep = replicas_[static_cast<size_t>(r)];
      rep.gpu = std::make_unique<Gpu>(&engine_, config.gpu);
      for (int priority : kStreamPriority) {
        rep.gpu->CreateStream(priority);
      }
      rep.gpu->AddKernelDoneListener(
          [this, r](KernelId id) { OnKernelDone(r, id); });
      if (in.plan != nullptr) {
        rep.launcher = std::make_unique<CpuLauncher>(
            &engine_, rep.gpu.get(), CpuLauncher::Mode::kPrecompiled,
            config.profile.graph_launch_latency);
      }
    }
  }

  void Run(ReplicaDriver* driver) override {
    driver_ = driver;
    driver->Start();
    engine_.Run();
  }
  TimeNs now() const override { return engine_.now(); }
  void ScheduleArrivals() override {
    for (size_t i = 0; i < in_.arrivals.size(); ++i) {
      engine_.ScheduleAt(in_.arrivals[i], [this, i] { driver_->OnArrival(i); });
    }
  }
  void LaunchTraining(int r) override {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    rep.item_kernel.assign(in_.plan->items.size(), -1);
    rep.launcher->Launch(std::vector<IssueItem>(in_.plan->items),
                         [&rep](size_t index, KernelId id) {
                           rep.item_kernel[index] = id;
                         });
  }
  void LaunchBatch(int r, size_t batch,
                   const std::vector<KernelCost>& costs) override {
    engine_.ScheduleAfter(
        in_.config.profile.graph_launch_latency, [this, r, batch, &costs] {
          Replica& rep = replicas_[static_cast<size_t>(r)];
          KernelId first = -1;
          KernelId last = -1;
          for (size_t layer = 0; layer < costs.size(); ++layer) {
            KernelDesc desc;
            desc.name = StrFormat("infer[%zu]#%zu", layer, batch);
            desc.category = "infer";
            desc.solo_duration = costs[layer].duration;
            desc.thread_blocks = costs[layer].thread_blocks;
            last = rep.gpu->Enqueue(kServeStream, std::move(desc));
            if (first < 0) {
              first = last;
            }
          }
          rep.launched.push_back({batch, first, last});
        });
  }
  void SetDeadline(int r, TimeNs t) override {
    Rearm(&replicas_[static_cast<size_t>(r)].deadline, t,
          [this, r] { driver_->OnDeadline(r); });
  }
  void SetWarmup(int r, TimeNs t) override {
    Rearm(&replicas_[static_cast<size_t>(r)].warmup, t,
          [this, r] { driver_->OnWarm(r); });
  }
  void SetTick(TimeNs t) override {
    Rearm(&tick_, t, [this] { driver_->OnTick(); });
  }
  std::vector<TimeNs> IterationEnds(int r) const override {
    const Replica& rep = replicas_[static_cast<size_t>(r)];
    return TrainIterationEndTimes(*rep.gpu, rep.item_kernel,
                                  in_.plan->iter_last_item);
  }
  double BusyIntegral(int r) const override {
    return replicas_[static_cast<size_t>(r)].gpu->SmBusyIntegral();
  }

 private:
  // A batch on the inference stream: its kernel span.
  struct Launched {
    size_t batch;
    KernelId first;
    KernelId last;
  };
  struct Replica {
    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<CpuLauncher> launcher;  // co-run only
    std::vector<KernelId> item_kernel;      // by training issue item
    // Launched batches, oldest first: the inference stream runs them in
    // order, so only the front's last kernel can complete a batch next.
    std::deque<Launched> launched;
    SimEngine::TimerHandle deadline;
    SimEngine::TimerHandle warmup;
  };

  void OnKernelDone(int r, KernelId id) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    if (rep.launched.empty() || rep.launched.front().last != id) {
      return;
    }
    const Launched done = rep.launched.front();
    rep.launched.pop_front();
    driver_->OnBatchDone(done.batch, rep.gpu->StartTime(done.first));
  }

  // Cancels `timer`'s pending event, then schedules `callback` at `t`
  // unless `t` is negative.
  void Rearm(SimEngine::TimerHandle* timer, TimeNs t,
             SimEngine::Callback callback) {
    engine_.Cancel(*timer);
    *timer = t >= 0 ? engine_.ScheduleAt(t, std::move(callback))
                    : SimEngine::TimerHandle();
  }

  const ReplicaInputs& in_;
  SimEngine engine_;
  std::vector<Replica> replicas_;
  SimEngine::TimerHandle tick_;
  ReplicaDriver* driver_ = nullptr;
};

// The Gpu's per-kernel dependency bookkeeping for the training issue plan,
// built once: each item's dependents in enqueue order, repeats kept (Gpu's
// per-kernel dependent lists), and the next item on its stream. Each
// replica of the executor keeps only per-item pending counts beside it.
// Items must name streams in [0, num_streams), valid costs, and only
// earlier items as dependencies.
struct IssueGraph {
  IssueGraph(const std::vector<IssueItem>& items, int num_streams)
      : dependents_begin(items.size() + 1, 0), next_on_stream(items.size()) {
    const size_t n = items.size();
    for (size_t i = 0; i < n; ++i) {
      const IssueItem& item = items[i];
      OOBP_CHECK(item.stream >= 0 && item.stream < num_streams)
          << "item " << i << " on stream " << item.stream;
      OOBP_CHECK_GE(item.solo_duration, 0);
      OOBP_CHECK_GT(item.thread_blocks, 0.0);
      for (int d = 0; d < item.num_deps; ++d) {
        OOBP_CHECK_LT(item.dep_items[d], i)
            << "dependency must precede dependent in issue order";
        ++dependents_begin[item.dep_items[d] + 1];
      }
    }
    for (size_t i = 0; i < n; ++i) {
      dependents_begin[i + 1] += dependents_begin[i];
    }
    dependents.resize(dependents_begin[n]);
    std::vector<int> cursor(dependents_begin.begin(),
                            dependents_begin.end() - 1);
    std::vector<int> next(static_cast<size_t>(num_streams), -1);
    for (size_t i = 0; i < n; ++i) {
      const IssueItem& item = items[i];
      for (int d = 0; d < item.num_deps; ++d) {
        dependents[cursor[item.dep_items[d]]++] = static_cast<int>(i);
      }
      const size_t back = n - 1 - i;
      next_on_stream[back] = next[items[back].stream];
      next[items[back].stream] = static_cast<int>(back);
    }
  }

  // Item i's dependents are dependents[dependents_begin[i]] up to
  // dependents[dependents_begin[i + 1]], exclusive.
  std::vector<int> dependents_begin;
  std::vector<int> dependents;
  std::vector<int> next_on_stream;  // -1 for a stream's last item
};

// Exact executor for unobserved runs. A replica's model is closed: each of
// its three streams holds at most one dispatched or running kernel, its
// batching deadline is one timer and its launcher makes one training
// launch. So a replica's events live in fixed slots — one kernel begin per
// stream, the fluid wake, the batching deadline and the training launch —
// plus a FIFO of pending batch graph launches (max_inflight > 1 can have
// several; their constant latency keeps them in time order). An indexed
// heap orders the replicas by their earliest event; beside it sit the
// control plane's events: the arrival cursor, the autoscaler tick and the
// warm-up timers. One sequence counter is drawn wherever the event path
// calls ScheduleAt, so every event runs in SimEngine's (time, seq) order.
// Kernels step through StreamFluid<3> (indexed by priority rank: main 0,
// inference 1, sub 2). Every replica shares one training plan (items,
// dependents, next on stream) and keeps only pending counts and iteration
// ends beside it.
class ReplicaExecutor final : public ReplicaBackend {
 public:
  explicit ReplicaExecutor(const ReplicaInputs& in)
      : in_(in),
        exec_overhead_(in.config.gpu.kernel_exec_overhead),
        launch_latency_(in.config.profile.graph_launch_latency) {
    const size_t items = in.plan != nullptr ? in.plan->items.size() : 0;
    if (in.plan != nullptr) {
      graph_.emplace(in.plan->items, /*num_streams=*/2);
      item_iter_.resize(items);
      size_t t = 0;
      for (size_t i = 0; i < items; ++i) {
        while (static_cast<int>(i) > in.plan->iter_last_item[t]) {
          ++t;
        }
        item_iter_[i] = static_cast<int>(t);
      }
    }
    const double capacity =
        static_cast<double>(in.config.gpu.slot_capacity());
    replicas_.reserve(static_cast<size_t>(in.replicas));
    for (int r = 0; r < in.replicas; ++r) {
      replicas_.emplace_back(capacity);
      Replica& rep = replicas_.back();
      if (in.plan != nullptr) {
        rep.pending.assign(items, 0);
        rep.iter_end.assign(in.plan->iter_last_item.size(), 0);
      }
    }
  }

  void Run(ReplicaDriver* driver) override {
    driver_ = driver;
    driver->Start();
    heap_.reserve(replicas_.size());
    for (size_t r = 0; r < replicas_.size(); ++r) {
      heap_.push_back(static_cast<int>(r));
      UpdateKey(static_cast<int>(r), heap_.size() - 1);
    }
    const std::vector<TimeNs>& arrivals = in_.arrivals;
    while (true) {
      enum { kNone, kReplica, kArrival, kTick, kWarm } source = kNone;
      Event next = kNever;
      const Replica& top = replicas_[static_cast<size_t>(heap_[0])];
      if (top.key_slot >= 0) {
        next = top.key;
        source = kReplica;
      }
      if (arrival_ < arrivals.size()) {
        const Event a{arrivals[arrival_], arrival_seq_ + arrival_};
        if (Before(a, next)) {
          next = a;
          source = kArrival;
        }
      }
      if (tick_.seq != 0 && Before(tick_, next)) {
        next = tick_;
        source = kTick;
      }
      if (!warm_.empty() && Before(warm_.front().event, next)) {
        next = warm_.front().event;
        source = kWarm;
      }
      if (source == kNone) {
        break;
      }
      now_ = next.time;
      ++processed_;
      switch (source) {
        case kReplica:
          Step(heap_[0]);
          break;
        case kArrival: {
          const int r = driver_->OnArrival(arrival_++);
          UpdateKey(r, replicas_[static_cast<size_t>(r)].heap_pos);
          break;
        }
        case kTick:
          tick_.seq = 0;
          driver_->OnTick();
          break;
        case kWarm: {
          const int r = warm_.front().replica;
          warm_.erase(warm_.begin());
          driver_->OnWarm(r);
          break;
        }
        case kNone:
          break;
      }
    }
    for (const Replica& rep : replicas_) {
      OOBP_CHECK_EQ(rep.trained, rep.pending.size())
          << "executor stalled before every training item ran";
    }
    SimEngine::AddProcessedEvents(processed_);
  }

  TimeNs now() const override { return now_; }
  void ScheduleArrivals() override {
    arrival_seq_ = next_seq_;
    next_seq_ += in_.arrivals.size();
  }
  void LaunchTraining(int r) override {
    Schedule(replicas_[static_cast<size_t>(r)], kTrainLaunch,
             now_ + launch_latency_);
  }
  void LaunchBatch(int r, size_t batch,
                   const std::vector<KernelCost>& costs) override {
    replicas_[static_cast<size_t>(r)].launches.push_back(
        {Draw(now_ + launch_latency_), batch, &costs});
  }
  // Every caller re-keys the replica: Step on return, an arrival after
  // OnArrival.
  void SetDeadline(int r, TimeNs t) override {
    Reschedule(replicas_[static_cast<size_t>(r)], kDeadline, t);
  }
  // Pending warm-ups stay in (time, seq) order.
  void SetWarmup(int r, TimeNs t) override {
    std::erase_if(warm_, [r](const Warm& w) { return w.replica == r; });
    if (t >= 0) {
      const Warm warm{Draw(t), r};
      warm_.insert(std::upper_bound(warm_.begin(), warm_.end(), warm,
                                    [](const Warm& a, const Warm& b) {
                                      return Before(a.event, b.event);
                                    }),
                   warm);
    }
  }
  void SetTick(TimeNs t) override { tick_ = t >= 0 ? Draw(t) : Event{}; }
  std::vector<TimeNs> IterationEnds(int r) const override {
    return replicas_[static_cast<size_t>(r)].iter_end;
  }
  double BusyIntegral(int r) const override {
    return replicas_[static_cast<size_t>(r)].fluid.busy_integral();
  }

 private:
  struct Event {
    TimeNs time = 0;
    uint64_t seq = 0;  // 0: no event
  };
  static constexpr Event kNever{std::numeric_limits<TimeNs>::max(),
                                std::numeric_limits<uint64_t>::max()};
  // SimEngine's order.
  static bool Before(const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  // A replica's fixed slots: kBegin + stream id is that stream's kernel
  // begin. kLaunches stands for the head of the batch-launch FIFO.
  enum Slot { kBegin = 0, kWake = 3, kDeadline, kTrainLaunch, kSlots };
  static constexpr int kLaunches = kSlots;

  // A batch graph launch: pending in `launches`, then on the stream in
  // `served`.
  struct Launch {
    Event event;
    size_t batch;
    const std::vector<KernelCost>* costs;
  };
  struct Replica {
    explicit Replica(double capacity) : fluid(capacity, nullptr) {}

    Event slot[kSlots];
    std::deque<Launch> launches;
    StreamFluid<3> fluid;
    bool dispatched[3] = {false, false, false};
    // Training streams: queued[s] enqueued-but-unfinished items, head[s]
    // the oldest.
    int queued[2] = {0, 0};
    int head[2] = {-1, -1};
    std::vector<int> pending;  // unfinished dependencies per training item
    size_t trained = 0;        // training items completed
    std::vector<TimeNs> iter_end;
    // Inference stream: launched batches in order; the head kernel is layer
    // `layer` of served.front(), whose first kernel began at batch_start.
    std::deque<Launch> served;
    size_t layer = 0;
    TimeNs batch_start = 0;
    // The earliest event (kNever when none) and where it sits.
    Event key = kNever;
    int key_slot = -1;
    size_t heap_pos = 0;
  };

  // SimEngine::ScheduleAt's sequence draw.
  Event Draw(TimeNs t) {
    OOBP_CHECK_GE(t, now_) << "event scheduled in the past";
    return Event{t, next_seq_++};
  }
  // SimEngine::ScheduleAt into an empty slot.
  void Schedule(Replica& rep, int slot, TimeNs t) {
    OOBP_CHECK_EQ(rep.slot[slot].seq, 0u) << "slot " << slot << " is taken";
    rep.slot[slot] = Draw(t);
  }
  // Cancel of the slot's pending event, then Schedule at `t` unless it is
  // negative.
  void Reschedule(Replica& rep, int slot, TimeNs t) {
    rep.slot[slot].seq = 0;
    if (t >= 0) {
      Schedule(rep, slot, t);
    }
  }

  // Runs replica `r`'s earliest event.
  void Step(int r) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    const auto finish = [this, r](int item) {
      if (item < 0) {
        FinishServe(r);
      } else {
        FinishTrain(r, item);
      }
    };
    const int slot = rep.key_slot;
    if (slot == kLaunches) {
      const Launch launch = rep.launches.front();
      rep.launches.pop_front();
      EnqueueBatch(rep, launch);
    } else {
      rep.slot[slot].seq = 0;
      switch (slot) {
        case kBegin + kTrainMainStream:
        case kBegin + kTrainSubStream: {
          // Gpu::BeginExecution of a training kernel.
          const int s = slot - kBegin;
          const int i = rep.head[s];
          const IssueItem& item = in_.plan->items[static_cast<size_t>(i)];
          Reschedule(rep, kWake,
                     rep.fluid.Begin(kStreamPriority[s], i,
                                     rep.fluid.DemandOf(item.solo_duration,
                                                        item.thread_blocks),
                                     now_, finish));
          break;
        }
        case kBegin + kServeStream: {
          // Gpu::BeginExecution of an inference kernel.
          if (rep.layer == 0) {
            rep.batch_start = now_;
          }
          const KernelCost& cost = (*rep.served.front().costs)[rep.layer];
          Reschedule(rep, kWake,
                     rep.fluid.Begin(kStreamPriority[kServeStream], -1,
                                     rep.fluid.DemandOf(cost.duration,
                                                        cost.thread_blocks),
                                     now_, finish));
          break;
        }
        case kWake:
          Reschedule(rep, kWake, rep.fluid.Wake(now_, finish));
          break;
        case kDeadline:
          driver_->OnDeadline(r);
          break;
        case kTrainLaunch:
          LaunchTrainingNow(rep);
          break;
      }
    }
    UpdateKey(r, rep.heap_pos);
  }

  // The graph launch's Gpu::Enqueue calls: only the first kernel can find
  // the stream undispatched.
  void EnqueueBatch(Replica& rep, const Launch& launch) {
    for (const KernelCost& cost : *launch.costs) {
      OOBP_CHECK_GE(cost.duration, 0);
      OOBP_CHECK_GT(cost.thread_blocks, 0.0);
    }
    rep.served.push_back(launch);
    DispatchServe(rep);
  }

  // The training graph launch: CpuLauncher's Gpu::Enqueue of every item.
  void LaunchTrainingNow(Replica& rep) {
    const std::vector<IssueItem>& items = in_.plan->items;
    for (size_t i = 0; i < items.size(); ++i) {
      rep.pending[i] = items[i].num_deps;  // nothing has finished yet
      const int s = items[i].stream;
      if (rep.queued[s]++ == 0) {
        rep.head[s] = static_cast<int>(i);
      }
      DispatchTrain(rep, s);
    }
  }

  // Gpu::MaybeDispatch: the head begins after the SM setup gap.
  void DispatchTrain(Replica& rep, int s) {
    if (rep.dispatched[s] || rep.queued[s] == 0 ||
        rep.pending[static_cast<size_t>(rep.head[s])] > 0) {
      return;
    }
    rep.dispatched[s] = true;
    Schedule(rep, kBegin + s, now_ + exec_overhead_);
  }
  void DispatchServe(Replica& rep) {
    if (rep.dispatched[kServeStream] || rep.served.empty()) {
      return;
    }
    rep.dispatched[kServeStream] = true;
    Schedule(rep, kBegin + kServeStream, now_ + exec_overhead_);
  }

  // Gpu::FinishKernel of a training item: woken dependents dispatch first,
  // then the stream's next head.
  void FinishTrain(int r, int i) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    TimeNs& end = rep.iter_end[static_cast<size_t>(item_iter_[i])];
    end = std::max(end, now_);
    ++rep.trained;
    const std::vector<IssueItem>& items = in_.plan->items;
    const int s = items[static_cast<size_t>(i)].stream;
    OOBP_CHECK(rep.queued[s] > 0 && rep.head[s] == i);
    if (--rep.queued[s] > 0) {
      rep.head[s] = graph_->next_on_stream[static_cast<size_t>(i)];
    }
    rep.dispatched[s] = false;
    for (int k = graph_->dependents_begin[static_cast<size_t>(i)];
         k < graph_->dependents_begin[static_cast<size_t>(i) + 1]; ++k) {
      const int j = graph_->dependents[static_cast<size_t>(k)];
      OOBP_CHECK_GT(rep.pending[static_cast<size_t>(j)], 0);
      if (--rep.pending[static_cast<size_t>(j)] == 0) {
        DispatchTrain(rep, items[static_cast<size_t>(j)].stream);
      }
    }
    DispatchTrain(rep, s);
  }

  // Gpu::FinishKernel of an inference kernel: a batch's last kernel runs
  // the done listener (the driver may dispatch), then the stream's next
  // head dispatches.
  void FinishServe(int r) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    rep.dispatched[kServeStream] = false;
    if (++rep.layer == rep.served.front().costs->size()) {
      const size_t batch = rep.served.front().batch;
      rep.served.pop_front();
      rep.layer = 0;
      driver_->OnBatchDone(batch, rep.batch_start);
    }
    DispatchServe(rep);
  }

  // Recomputes replica `r`'s earliest event and restores the heap order
  // from `pos`, where `r` sits.
  void UpdateKey(int r, size_t pos) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    Event key = kNever;
    int key_slot = -1;
    for (int s = 0; s < kSlots; ++s) {
      if (rep.slot[s].seq != 0 && Before(rep.slot[s], key)) {
        key = rep.slot[s];
        key_slot = s;
      }
    }
    if (!rep.launches.empty() && Before(rep.launches.front().event, key)) {
      key = rep.launches.front().event;
      key_slot = kLaunches;
    }
    rep.key = key;
    rep.key_slot = key_slot;
    // Sift up, then down.
    while (pos > 0) {
      const size_t parent = (pos - 1) / 2;
      const int p = heap_[parent];
      if (!Before(key, replicas_[static_cast<size_t>(p)].key)) {
        break;
      }
      heap_[pos] = p;
      replicas_[static_cast<size_t>(p)].heap_pos = pos;
      pos = parent;
    }
    while (true) {
      size_t child = 2 * pos + 1;
      if (child >= heap_.size()) {
        break;
      }
      if (child + 1 < heap_.size() &&
          Before(replicas_[static_cast<size_t>(heap_[child + 1])].key,
                 replicas_[static_cast<size_t>(heap_[child])].key)) {
        ++child;
      }
      const int c = heap_[child];
      if (!Before(replicas_[static_cast<size_t>(c)].key, key)) {
        break;
      }
      heap_[pos] = c;
      replicas_[static_cast<size_t>(c)].heap_pos = pos;
      pos = child;
    }
    heap_[pos] = r;
    rep.heap_pos = pos;
  }

  const ReplicaInputs& in_;
  const TimeNs exec_overhead_;
  const TimeNs launch_latency_;
  std::optional<IssueGraph> graph_;  // co-run only
  std::vector<int> item_iter_;       // iteration of each training item
  std::vector<Replica> replicas_;
  std::vector<int> heap_;  // replica indices, earliest key first

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  ReplicaDriver* driver_ = nullptr;

  // Control plane.
  size_t arrival_ = 0;        // next arrival; arrival i drew arrival_seq_ + i
  uint64_t arrival_seq_ = 0;
  Event tick_;
  struct Warm {
    Event event;
    int replica;
  };
  std::vector<Warm> warm_;  // pending warm-ups, earliest first
};

}  // namespace

FleetMetrics RunReplicas(const FleetConfig& config, bool fleet,
                         const NnModel* train_model,
                         const IterationSchedule* train_schedule,
                         int train_iterations) {
  const CostModel cost(config.gpu, config.profile);
  ReplicaInputs in{config, fleet, fleet ? config.autoscaler.max_replicas : 1,
                   GenerateTracedArrivals(config.arrivals, config.envelope,
                                          config.horizon),
                   {}, nullptr};
  // One captured graph per batch size (the realistic deployment).
  const int max_batch = config.batcher.max_batch;
  in.batch_costs.resize(static_cast<size_t>(max_batch) + 1);
  for (int b = 1; b <= max_batch; ++b) {
    const NnModel model = config.make_model(b);
    // A batch without kernels would never complete, and neither would its
    // requests.
    OOBP_CHECK(!model.layers.empty())
        << "inference model '" << model.name << "' at batch " << b
        << " has no layers";
    std::vector<KernelCost>& costs = in.batch_costs[static_cast<size_t>(b)];
    costs.reserve(model.layers.size());
    for (const Layer& layer : model.layers) {
      costs.push_back(cost.Cost(layer, TrainOpType::kForward));
    }
  }
  TrainIssuePlan plan;
  if (train_model != nullptr) {
    plan = BuildTrainIssuePlan(*train_model, *train_schedule, cost,
                               train_iterations, kTrainMainStream,
                               kTrainSubStream);
    in.plan = &plan;
  }

  // The executor reproduces the event path bit for bit (src/hw/observer.h
  // states the rule).
  std::unique_ptr<ReplicaBackend> backend;
  if (RunIsObserved()) {
    backend = std::make_unique<ReplicaEventBackend>(in);
  } else {
    backend = std::make_unique<ReplicaExecutor>(in);
  }
  ReplicaDriver driver(backend.get(), in);
  backend->Run(&driver);
  return driver.Metrics(train_model, train_schedule, train_iterations);
}

}  // namespace oobp

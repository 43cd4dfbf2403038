#include "src/runtime/single_gpu_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/hw/observer.h"
#include "src/runtime/slot_executor.h"
#include "src/runtime/train_sim.h"
#include "src/sim/engine.h"

namespace oobp {

IterationSchedule NaiveSubStreamIteration(const TrainGraph& graph) {
  IterationSchedule sched;
  for (const TrainOp& op : graph.ConventionalBackprop()) {
    if (op.type == TrainOpType::kWeightGrad) {
      sched.ops.push_back({op, kSubStream, -1});
      sched.ops.push_back({{TrainOpType::kWeightUpdate, op.layer}, kSubStream, -1});
    } else {
      sched.ops.push_back({op, kMainStream, -1});
    }
  }
  for (const TrainOp& op : graph.Forward()) {
    sched.ops.push_back({op, kMainStream, -1});
  }
  return sched;
}

TrainIssuePlan BuildTrainIssuePlan(const NnModel& model,
                                   const IterationSchedule& schedule,
                                   const CostModel& cost, int iterations,
                                   StreamId main_stream, StreamId sub_stream) {
  OOBP_CHECK_GT(iterations, 0);
  // Labels only feed observers; an unobserved run skips the per-item string
  // formatting entirely.
  const bool labels = RunIsObserved();
  const size_t n = schedule.ops.size();
  const ScheduleDeps deps = IterationDeps(schedule, model.num_layers());

  // Kernel costs depend only on the scheduled op, not the iteration index:
  // compute them once per schedule position instead of once per issued item.
  std::vector<KernelCost> op_cost(n);
  for (size_t p = 0; p < n; ++p) {
    op_cost[p] =
        cost.Cost(model.layers[schedule.ops[p].op.layer], schedule.ops[p].op.type);
  }

  // Item t*n + p is position p of iteration t; an op that waits on the
  // previous iteration's F_{L-1} waits on item (t-1)*n + last_fwd.
  TrainIssuePlan plan;
  std::vector<IssueItem>& items = plan.items;
  items.reserve(n * iterations);
  plan.iter_last_item.assign(iterations, -1);
  for (int t = 0; t < iterations; ++t) {
    const size_t base = static_cast<size_t>(t) * n;
    for (size_t p = 0; p < n; ++p) {
      const ScheduledOp& s = schedule.ops[p];
      const KernelCost& kc = op_cost[p];

      IssueItem item;
      item.stream = s.stream == kSubStream ? sub_stream : main_stream;
      if (labels) {
        item.name = StrFormat("%s[%s]#%d", TrainOpTypeName(s.op.type),
                              model.layers[s.op.layer].name.c_str(), t);
        item.category = TrainOpTypeName(s.op.type);
      }
      item.solo_duration = kc.duration;
      item.thread_blocks = kc.thread_blocks;
      item.issue_latency = kc.issue_latency;

      const OpDeps& d = deps.ops[p];
      if (d.prev_fwd && t > 0 && deps.last_fwd >= 0) {
        item.AddDep(base - n + static_cast<size_t>(deps.last_fwd));
      }
      for (const int q : d.dep) {
        if (q >= 0) {
          item.AddDep(base + static_cast<size_t>(q));
        }
      }
      items.push_back(std::move(item));
    }
    plan.iter_last_item[t] = static_cast<int>(items.size()) - 1;
  }
  return plan;
}

std::vector<TimeNs> TrainIterationEndTimes(
    const Gpu& gpu, const std::vector<KernelId>& item_kernel,
    const std::vector<int>& iter_last_item) {
  std::vector<TimeNs> iter_end(iter_last_item.size(), 0);
  size_t t = 0;
  for (size_t index = 0; index < item_kernel.size(); ++index) {
    while (static_cast<int>(index) > iter_last_item[t]) {
      ++t;
    }
    iter_end[t] =
        std::max(iter_end[t], gpu.CompletionTime(item_kernel[index]));
  }
  return iter_end;
}

SingleGpuEngine::SingleGpuEngine(SingleGpuConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GT(config_.measured_iterations, 0);
}

TrainSimOutcome SimulateTraining(const SingleGpuConfig& config,
                                 const CostModel& cost, const NnModel& model,
                                 const IterationSchedule& schedule,
                                 int iterations) {
  TrainSimOutcome out;
  SimEngine engine;
  Gpu gpu(&engine, config.gpu);
  gpu.SetBusyRecorder(&out.increments);
  const StreamId main_stream = gpu.CreateStream(/*priority=*/0);
  const StreamId sub_stream = gpu.CreateStream(/*priority=*/1);
  CpuLauncher launcher(&engine, &gpu,
                       config.precompiled_issue ? CpuLauncher::Mode::kPrecompiled
                                                : CpuLauncher::Mode::kPerOp,
                       config.profile.graph_launch_latency,
                       config.profile.issue_queue_depth);

  TrainIssuePlan plan = BuildTrainIssuePlan(model, schedule, cost, iterations,
                                            main_stream, sub_stream);

  // Run to completion, tracking per-item kernel ids for iteration timing.
  std::vector<KernelId> item_kernel(plan.items.size(), -1);
  launcher.Launch(std::move(plan.items), [&](size_t index, KernelId id) {
    item_kernel[index] = id;
  });
  engine.Run();
  OOBP_CHECK_EQ(gpu.kernels_completed(), item_kernel.size());

  out.iter_end = TrainIterationEndTimes(gpu, item_kernel, plan.iter_last_item);
  out.busy_integral = gpu.SmBusyIntegral();
  out.events = engine.processed_events();
  out.simulated_iterations = iterations;
  return out;
}

// The single-GPU model, executed without the event machinery. Each of the
// two streams (main = priority 0, sub = priority 1) holds at most one
// dispatched-or-running kernel, so at most four events are ever pending:
// the graph launch or next issue, one begin per stream, and one fluid wake.
// They live in fixed slots (EventSlots) and step the shared fluid model
// (StreamFluid). Every step below mirrors one in CpuLauncher or Gpu, in the
// same order, which is what makes the outcome bit-identical
// (tests/steady_replay_test.cc compares the two).
//
// Nothing is unrolled over iterations. Item (t, p) is position p of
// iteration t; its dependencies are IterationDeps' per-position rule, and
// it is done once its stream has finished past it, since a stream runs its
// items in issue order. Readiness is re-derived from those counts where the
// Gpu decrements a pending count, which dispatches at the same calls.
//
// A pass stops at the first clean barrier whose pending state repeats an
// earlier barrier's (src/core/schedule.h): the remaining iteration ends
// follow by arithmetic and the busy integral by folding each remaining
// iteration's increments, those of the stepped iteration it repeats, in
// order.
class TwoStreamExecutor::Pass {
 public:
  // `increments` receives the busy increments; null records none.
  Pass(TwoStreamExecutor* x, int iterations,
       std::vector<BusyIncrement>* increments)
      : x_(*x),
        pos_(x->pos_.data()),
        deps_(x->deps_.ops.data()),
        dependent_next_(x->dependent_next_.data()),
        last_fwd_(x->deps_.last_fwd),
        order_{x->order_[0].data(), x->order_[1].data()},
        len_{static_cast<int>(x->order_[0].size()),
             static_cast<int>(x->order_[1].size())},
        first_{len_[0] > 0 ? order_[0][0] : -1,
               len_[1] > 0 ? order_[1][0] : -1},
        n_(x->n_),
        iterations_(iterations),
        total_(static_cast<int64_t>(n_) * iterations),
        issue_limit_(x->per_op_ && x->queue_depth_ > 0
                         ? total_ + x->queue_depth_ + 1
                         : total_),
        increments_(increments),
        fluid_(x->capacity_, increments) {
    OOBP_CHECK_GT(iterations, 0);
    x_.barriers_.clear();
    x_.iter_end_.assign(static_cast<size_t>(iterations), 0);
    iter_end_ = x_.iter_end_.data();
  }

  // Steps until every item has run or a barrier repeats; the iteration ends
  // land in the executor's iter_end_.
  void Run() {
    if (x_.per_op_) {
      IssueNext();
      barrier_ = -1;  // the launch, with nothing before it to repeat
      AtBarrier();
    } else {
      slots_.Schedule(kIssue, x_.graph_launch_latency_);
    }
    const auto finish = [this](int p) { Finish(p); };
    for (int e = slots_.Next(); e >= 0; e = slots_.Next()) {
      switch (e) {
        case kIssue:
          if (x_.per_op_) {
            beyond_end_ += issuing_.t >= iterations_;
            Enqueue(issuing_);
            IssueNext();
          } else {
            Launch();
            barrier_ = -1;
          }
          break;
        case kBegin0:
        case kBegin1: {
          // Gpu::BeginExecution.
          const int s = e - kBegin0;
          const int p = head_[s].pos;
          slots_.Reschedule(kWake, fluid_.Begin(s, p, pos_[p].demand,
                                                slots_.now(), finish));
          break;
        }
        case kWake:
          slots_.Reschedule(kWake, fluid_.Wake(slots_.now(), finish));
          break;
      }
      if (barrier_ != kNoBarrier && AtBarrier()) {
        return;
      }
    }
    OOBP_CHECK_EQ(finished_[0] + finished_[1], total_)
        << "executor stalled before every item ran";
    busy_ = fluid_.busy_integral();
    simulated_ = iterations_;
  }

  double busy_integral() const { return busy_; }
  int simulated_iterations() const { return simulated_; }
  // Events stepped for items of the run: the event path's count.
  uint64_t events() const { return slots_.processed() - beyond_end_; }

 private:
  static constexpr int kNoBarrier = -2;

  struct Item {
    int64_t t = 0;  // iteration
    int pos = 0;
  };

  // Item (t, q) has completed.
  bool Done(int64_t t, int q) const {
    const Position& pos = pos_[q];
    return finished_[pos.stream] > t * len_[pos.stream] + pos.rank;
  }

  // Every dependency of item (t, p) has completed: the Gpu's pending count
  // is zero.
  bool Ready(const Item& item) const {
    const OpDeps& d = deps_[item.pos];
    if (d.prev_fwd && item.t > 0 && last_fwd_ >= 0 &&
        !Done(item.t - 1, last_fwd_)) {
      return false;
    }
    for (const int q : d.dep) {
      if (q >= 0 && !Done(item.t, q)) {
        return false;
      }
    }
    return true;
  }

  // CpuLauncher::IssueNext (per-op mode). The launcher runs at most
  // queue_depth + 1 items ahead of the completed ones, and it keeps going
  // that far past the run's last item, into iterations that never dispatch
  // (MaybeDispatch) and do not reach the run's outcome or event count. So a
  // barrier before the last iteration sees the launcher an endless run
  // would have (AtBarrier).
  void IssueNext() {
    if (next_index_ >= issue_limit_) {
      return;
    }
    if (x_.queue_depth_ > 0 && in_flight_ >= x_.queue_depth_) {
      blocked_ = true;  // resumed from Finish()
      return;
    }
    issuing_ = next_;
    ++next_index_;
    if (++next_.pos == n_) {
      next_.pos = 0;
      ++next_.t;
    }
    const Kernel& kernel = x_.kernels_[pos_[issuing_.pos].kernel];
    slots_.Schedule(kIssue, slots_.now() + kernel.issue_latency);
  }

  // CpuLauncher::EnqueueItem + Gpu::Enqueue (per-op mode).
  void Enqueue(const Item& item) {
    ++enqueued_;
    const int s = pos_[item.pos].stream;
    if (queued_[s]++ == 0) {
      head_[s] = item;
    }
    MaybeDispatch(s);
    ++in_flight_;
  }

  // The graph launch: every item enqueued at once. Gpu::Enqueue dispatches
  // a stream's head when it enqueues it, so the heads go in the order of
  // their streams' first positions. The launcher's in-flight count never
  // blocks a precompiled launch, so it is not kept.
  void Launch() {
    enqueued_ = total_;
    for (int s = 0; s < 2; ++s) {
      queued_[s] = static_cast<int64_t>(len_[s]) * iterations_;
      head_[s] = Item{0, first_[s]};
    }
    const int first = first_[1] >= 0 && first_[1] < first_[0] ? 1 : 0;
    MaybeDispatch(first);
    MaybeDispatch(1 - first);
  }

  // Gpu::MaybeDispatch: the head begins after the SM setup gap. A head
  // past the run's last iteration does not exist in the run.
  void MaybeDispatch(int s) {
    if (dispatched_[s] || queued_[s] == 0 || head_[s].t >= iterations_ ||
        !Ready(head_[s])) {
      return;
    }
    dispatched_[s] = true;
    slots_.Schedule(kBegin0 + s, slots_.now() + x_.exec_overhead_);
  }

  // Gpu::FinishKernel: woken dependents dispatch first, then the launcher's
  // done listener resumes a blocked issue, then the stream's next head.
  void Finish(int p) {
    const int s = pos_[p].stream;
    OOBP_CHECK(queued_[s] > 0 && head_[s].pos == p);
    const int64_t t = head_[s].t;
    TimeNs& end = iter_end_[t];
    end = std::max(end, slots_.now());
    ++finished_[s];
    if (--queued_[s] > 0) {
      const int next = pos_[p].rank + 1;
      head_[s] = next < len_[s] ? Item{t, order_[s][next]}
                                : Item{t + 1, first_[s]};
    }
    dispatched_[s] = false;
    // Only dependents enqueued so far registered with this item; later
    // ones saw it done. Enqueue order is index order.
    for (int e = pos_[p].dependents; e >= 0; e = dependent_next_[e]) {
      WakeDependent(Item{t, e >> 1});
    }
    if (p == last_fwd_) {
      for (const int q : x_.carried_) {
        WakeDependent(Item{t + 1, q});
      }
      barrier_ = static_cast<int>(t);
    }
    if (in_flight_ > 0) {
      --in_flight_;
    }
    if (blocked_ && in_flight_ < x_.queue_depth_) {
      blocked_ = false;
      IssueNext();
    }
    MaybeDispatch(s);
  }

  void WakeDependent(const Item& item) {
    if (item.t * n_ + item.pos < enqueued_ && Ready(item)) {
      MaybeDispatch(pos_[item.pos].stream);
    }
  }

  // Called after the step that completed F_{L-1} of iteration b = barrier_
  // (b = -1: the launch). A barrier is clean when iterations <= b have
  // completed, no kernel drains and a per-op launcher still has items to
  // issue. Then the done set is every item below (b+1)n; every item from
  // there to (b+1)n + in_flight_ is enqueued; a pending issue holds the
  // next one and an empty issue slot means the launcher is blocked; each
  // stream's head is its first position of iteration b+1, dispatched iff
  // its begin is pending. So the pending events seen from the barrier and
  // the in-flight count are the whole state the rest of the run reads.
  // Returns true, with the outcome filled in, when that state repeats any
  // earlier clean barrier's and iterations remain: every later iteration
  // then repeats the one p = b - a before it.
  bool AtBarrier() {
    const int b = barrier_;
    barrier_ = kNoBarrier;
    std::vector<Barrier>& barriers = x_.barriers_;
    Barrier cur;
    cur.clean = fluid_.idle() && finished_[0] == (b + 1) * len_[0] &&
                finished_[1] == (b + 1) * len_[1] &&
                (!x_.per_op_ || next_index_ < issue_limit_);
    cur.time = slots_.now();
    cur.ahead = slots_;
    cur.in_flight = in_flight_;
    cur.increments = increments_ != nullptr ? increments_->size() : 0;
    barriers.push_back(cur);
    OOBP_CHECK_EQ(barriers.size(), static_cast<size_t>(b + 2))
        << "barrier b is barriers[b + 1]";
    for (int a = -1; a < b && cur.clean && b + 1 < iterations_; ++a) {
      const Barrier& earlier = barriers[a + 1];
      if (!earlier.clean || earlier.in_flight != cur.in_flight ||
          !slots_.SameAhead(earlier.ahead)) {
        continue;
      }
      const int p = b - a;
      busy_ = fluid_.busy_integral();
      for (int t = b + 1; t < iterations_; ++t) {
        iter_end_[t] = iter_end_[t - p] + (cur.time - earlier.time);
        // The stepped iteration it repeats, between barriers src - 1 and
        // src.
        const int src = t - p * ((t - b + p - 1) / p);
        for (size_t k = barriers[src].increments;
             k < barriers[src + 1].increments; ++k) {
          busy_ += (*increments_)[k].value;
        }
      }
      simulated_ = b + 1;
      return true;
    }
    return false;
  }

  TwoStreamExecutor& x_;  // the prepared schedule and the run's buffers
  // The hot parts of x_, at hand.
  const Position* const pos_;
  const OpDeps* const deps_;
  const int* const dependent_next_;
  const int last_fwd_;
  const int* const order_[2];
  const int len_[2];
  const int first_[2];  // each stream's first position; -1 for none
  TimeNs* iter_end_ = nullptr;
  const int n_;
  const int iterations_;
  const int64_t total_;
  const int64_t issue_limit_;  // items a per-op launcher issues
  std::vector<BusyIncrement>* const increments_;

  EventSlots<kSlots> slots_;
  StreamFluid<2> fluid_;

  // Launcher.
  int64_t next_index_ = 0;
  Item next_;
  Item issuing_;
  int in_flight_ = 0;
  bool blocked_ = false;
  uint64_t beyond_end_ = 0;  // issues of items past the last iteration

  // Streams: queued_[s] enqueued-but-unfinished items, head_[s] the oldest.
  int64_t queued_[2] = {0, 0};
  Item head_[2];
  bool dispatched_[2] = {false, false};
  int64_t finished_[2] = {0, 0};
  int64_t enqueued_ = 0;

  // Barriers and the outcome.
  int barrier_ = kNoBarrier;
  double busy_ = 0.0;
  int simulated_ = 0;
};

TwoStreamExecutor::TwoStreamExecutor(const SingleGpuConfig& config,
                                     const CostModel& cost,
                                     const NnModel& model)
    : cost_(cost),
      model_(model),
      per_op_(!config.precompiled_issue),
      queue_depth_(config.profile.issue_queue_depth),
      exec_overhead_(config.gpu.kernel_exec_overhead),
      graph_launch_latency_(config.profile.graph_launch_latency),
      capacity_(static_cast<double>(config.gpu.slot_capacity())),
      kernels_(static_cast<size_t>(model.num_layers()) * 4) {
  OOBP_CHECK_GE(queue_depth_, 0);
}

TwoStreamExecutor::~TwoStreamExecutor() = default;

void TwoStreamExecutor::Prepare(const IterationSchedule& schedule) {
  deps_ = IterationDeps(schedule, model_.num_layers());
  const int n = static_cast<int>(schedule.ops.size());
  n_ = n;
  pos_.resize(static_cast<size_t>(n));
  dependent_next_.resize(2 * static_cast<size_t>(n));
  dependent_last_.resize(static_cast<size_t>(n));
  carried_.clear();
  // Locals, not members, so that the stores below cannot alias them.
  Position* const pos = pos_.data();
  int* const dependent_next = dependent_next_.data();
  int* const dependent_last = dependent_last_.data();
  const OpDeps* const deps = deps_.ops.data();
  order_[0].clear();
  order_[1].clear();
  for (int p = 0; p < n; ++p) {
    const ScheduledOp& s = schedule.ops[p];
    const int kernel = s.op.layer * 4 + static_cast<int>(s.op.type);
    Kernel& k = kernels_[kernel];
    if (!k.known) {
      // Sized as a pass's fluid sizes it.
      const KernelCost kc = cost_.Cost(model_.layers[s.op.layer], s.op.type);
      k = Kernel{true, kc.issue_latency,
                 StreamFluid<2>(capacity_, nullptr)
                     .DemandOf(kc.duration, kc.thread_blocks)};
    }
    const int stream = s.stream == kSubStream ? 1 : 0;
    std::vector<int>& order = order_[stream];
    pos[p] = Position{k.demand, kernel, stream, static_cast<int>(order.size()),
                      -1};
    order.push_back(p);
    const OpDeps& d = deps[p];
    for (int j = 0; j < 2; ++j) {
      const int q = d.dep[j];
      if (q < 0) {
        continue;
      }
      const int e = 2 * p + j;
      int& head = pos[q].dependents;
      (head < 0 ? head : dependent_next[dependent_last[q]]) = e;
      dependent_last[q] = e;
      dependent_next[e] = -1;
    }
    if (d.prev_fwd) {
      carried_.push_back(p);
    }
  }
}

TrainSimOutcome TwoStreamExecutor::Run(const IterationSchedule& schedule,
                                       int iterations) {
  Prepare(schedule);
  increments_.clear();
  Pass pass(this, iterations, &increments_);
  pass.Run();
  TrainSimOutcome out;
  out.iter_end = std::move(iter_end_);
  out.busy_integral = pass.busy_integral();
  out.increments = std::move(increments_);
  out.events = pass.events();
  out.simulated_iterations = pass.simulated_iterations();
  return out;
}

// Flattened, so that the pass, its slots and its fluid compile into one
// frame: that makes a DenseNet-121 candidate about 9% cheaper
// (DESIGN.md §14.1).
[[gnu::flatten]] TimeNs TwoStreamExecutor::IterationTime(
    const IterationSchedule& schedule, int iterations) {
  OOBP_CHECK_GE(iterations, 2);
  Prepare(schedule);
  Pass(this, iterations, nullptr).Run();
  return (iter_end_.back() - iter_end_.front()) / (iterations - 1);
}

TrainSimOutcome ExecuteTraining(const SingleGpuConfig& config,
                                const CostModel& cost, const NnModel& model,
                                const IterationSchedule& schedule,
                                int iterations) {
  TrainSimOutcome out =
      TwoStreamExecutor(config, cost, model).Run(schedule, iterations);
  SimEngine::AddProcessedEvents(out.events);
  return out;
}

TrainMetrics SingleGpuEngine::Run(const NnModel& model,
                                  const IterationSchedule& schedule,
                                  TraceRecorder* trace,
                                  ReplayStats* replay_stats) const {
  const CostModel cost(config_.gpu, config_.profile);
  const int iterations = 1 + config_.measured_iterations;  // 1 warm-up
  OOBP_CHECK_GT(schedule.ops.size(), 0u)
      << "SingleGpuEngine: empty schedule for model '" << model.name << "'";

  // The executor reproduces the event path bit for bit (src/hw/observer.h
  // states the rule).
  const ObserverScope scope(trace);
  const bool observed = RunIsObserved();
  const TrainSimOutcome out =
      observed ? SimulateTraining(config_, cost, model, schedule, iterations)
               : ExecuteTraining(config_, cost, model, schedule, iterations);
  if (replay_stats != nullptr) {
    *replay_stats = StepStats(!observed, out.simulated_iterations, iterations);
  }
  TrainMetrics metrics;
  const TimeNs final_end = out.iter_end.back();
  const TimeNs window = final_end - out.iter_end.front();
  metrics.iteration_time = window / config_.measured_iterations;
  metrics.throughput =
      static_cast<double>(model.batch) / ToSec(metrics.iteration_time);
  const double capacity = static_cast<double>(config_.gpu.slot_capacity());
  if (window > 0) {
    metrics.gpu_utilization =
        out.busy_integral / (capacity * static_cast<double>(final_end));
  }

  // Memory: schedule-dependent activation peak plus the static base, under
  // the framework's allocator overhead.
  const MemoryPeak mem = EstimateBackpropPeak(model, schedule);
  metrics.peak_memory_bytes = static_cast<int64_t>(
      static_cast<double>(mem.peak_total()) * config_.profile.allocator_overhead);
  metrics.oom = metrics.peak_memory_bytes > config_.gpu.mem_bytes;
  return metrics;
}

}  // namespace oobp

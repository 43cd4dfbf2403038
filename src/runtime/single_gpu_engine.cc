#include "src/runtime/single_gpu_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/hw/validation_hooks.h"
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
                                   StreamId main_stream, StreamId sub_stream,
                                   bool label_items) {
  OOBP_CHECK_GT(iterations, 0);
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
      if (label_items) {
        // Labels only feed trace events; untraced runs skip the per-item
        // string formatting entirely.
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

namespace {

// Iteration t ends when the last of items (iter_last_item[t-1],
// iter_last_item[t]] completes; `done_time(index)` gives each item's
// completion time.
template <typename DoneTime>
std::vector<TimeNs> IterationEnds(size_t items,
                                  const std::vector<int>& iter_last_item,
                                  DoneTime done_time) {
  std::vector<TimeNs> iter_end(iter_last_item.size(), 0);
  size_t t = 0;
  for (size_t index = 0; index < items; ++index) {
    while (static_cast<int>(index) > iter_last_item[t]) {
      ++t;
    }
    iter_end[t] = std::max(iter_end[t], done_time(index));
  }
  return iter_end;
}

}  // namespace

std::vector<TimeNs> TrainIterationEndTimes(
    const Gpu& gpu, const std::vector<KernelId>& item_kernel,
    const std::vector<int>& iter_last_item) {
  return IterationEnds(item_kernel.size(), iter_last_item, [&](size_t index) {
    return gpu.CompletionTime(item_kernel[index]);
  });
}

SingleGpuEngine::SingleGpuEngine(SingleGpuConfig config)
    : config_(std::move(config)) {
  OOBP_CHECK_GT(config_.measured_iterations, 0);
}

TrainSimOutcome SimulateTraining(const SingleGpuConfig& config,
                                 const CostModel& cost, const NnModel& model,
                                 const IterationSchedule& schedule,
                                 int iterations, TraceRecorder* trace,
                                 bool record) {
  TrainSimOutcome out;
  SimEngine engine;
  Gpu gpu(&engine, config.gpu, trace, /*trace_track_base=*/0);
  if (record) {
    gpu.SetBusyRecorder(&out.increments);
  }
  const StreamId main_stream = gpu.CreateStream(/*priority=*/0);
  const StreamId sub_stream = gpu.CreateStream(/*priority=*/1);
  CpuLauncher launcher(&engine, &gpu,
                       config.precompiled_issue ? CpuLauncher::Mode::kPrecompiled
                                                : CpuLauncher::Mode::kPerOp,
                       config.profile.graph_launch_latency, trace,
                       /*issue_track=*/100, config.profile.issue_queue_depth);

  TrainIssuePlan plan =
      BuildTrainIssuePlan(model, schedule, cost, iterations, main_stream,
                          sub_stream, /*label_items=*/trace != nullptr);

  // Run to completion, tracking per-item kernel ids for iteration timing.
  std::vector<KernelId> item_kernel(plan.items.size(), -1);
  launcher.Launch(std::move(plan.items), [&](size_t index, KernelId id) {
    item_kernel[index] = id;
  });
  engine.Run();
  OOBP_CHECK_EQ(gpu.kernels_completed(), item_kernel.size());

  out.iter_end = TrainIterationEndTimes(gpu, item_kernel, plan.iter_last_item);
  out.busy_integral = gpu.SmBusyIntegral();
  if (record) {
    out.item_start.reserve(item_kernel.size());
    out.item_done.reserve(item_kernel.size());
    for (KernelId id : item_kernel) {
      out.item_start.push_back(gpu.StartTime(id));
      out.item_done.push_back(gpu.CompletionTime(id));
    }
  }
  out.events = engine.processed_events();
  return out;
}

namespace {

// The single-GPU model, executed without the event machinery. Each of the
// two streams (main = priority 0, sub = priority 1) holds at most one
// dispatched-or-running kernel, so at most four events are ever pending:
// the graph launch or next issue, one begin per stream, and one fluid wake.
// They live in fixed slots (EventSlots) and step the shared fluid model
// (StreamFluid). Every step below mirrors one in CpuLauncher or Gpu, in the
// same order, which is what makes the outcome bit-identical
// (tests/steady_replay_test.cc compares the two).
class TwoStreamExecutor {
 public:
  TwoStreamExecutor(const SingleGpuConfig& config, const TrainIssuePlan& plan,
                    bool record)
      : items_(plan.items),
        n_(plan.items.size()),
        per_op_(!config.precompiled_issue),
        queue_depth_(config.profile.issue_queue_depth),
        exec_overhead_(config.gpu.kernel_exec_overhead),
        graph_launch_latency_(config.profile.graph_launch_latency),
        record_(record),
        fluid_(static_cast<double>(config.gpu.slot_capacity()),
               record ? &increments_ : nullptr),
        graph_(plan.items, /*num_streams=*/2),
        pending_(n_, 0),
        start_(n_, -1),
        done_(n_, -1) {
    OOBP_CHECK_GE(queue_depth_, 0);
    if (record_) {
      increments_.reserve(4 * n_);
    }
  }

  TrainSimOutcome Run(const std::vector<int>& iter_last_item) {
    if (per_op_) {
      IssueNext();
    } else {
      slots_.Schedule(kIssue, graph_launch_latency_);
    }
    const auto finish = [this](int item) { Finish(item); };
    for (int e = slots_.Next(); e >= 0; e = slots_.Next()) {
      switch (e) {
        case kIssue:
          if (per_op_) {
            Enqueue(issuing_);
            IssueNext();
          } else {
            for (size_t i = 0; i < n_; ++i) {
              Enqueue(i);
            }
          }
          break;
        case kBegin0:
        case kBegin1: {
          // Gpu::BeginExecution.
          const int s = e - kBegin0;
          const int i = head_[s];
          start_[i] = slots_.now();
          slots_.Reschedule(
              kWake, fluid_.Begin(s, i, items_[i].solo_duration,
                                  items_[i].thread_blocks, slots_.now(),
                                  finish));
          break;
        }
        case kWake:
          slots_.Reschedule(kWake, fluid_.Wake(slots_.now(), finish));
          break;
      }
    }
    OOBP_CHECK_EQ(completed_, n_) << "executor stalled before every item ran";

    TrainSimOutcome out;
    out.iter_end = IterationEnds(n_, iter_last_item,
                                 [this](size_t i) { return done_[i]; });
    out.busy_integral = fluid_.busy_integral();
    if (record_) {
      out.item_start = std::move(start_);
      out.item_done = std::move(done_);
      out.increments = std::move(increments_);
    }
    out.events = slots_.processed();
    return out;
  }

 private:
  enum Slot { kIssue, kBegin0, kBegin1, kWake, kSlots };

  // CpuLauncher::IssueNext (per-op mode).
  void IssueNext() {
    if (next_index_ >= n_) {
      return;
    }
    if (queue_depth_ > 0 && in_flight_ >= queue_depth_) {
      blocked_ = true;  // resumed from Finish()
      return;
    }
    issuing_ = next_index_++;
    slots_.Schedule(kIssue, slots_.now() + items_[issuing_].issue_latency);
  }

  // CpuLauncher::EnqueueItem + Gpu::Enqueue.
  void Enqueue(size_t i) {
    const IssueItem& item = items_[i];
    int pending = 0;
    for (int d = 0; d < item.num_deps; ++d) {
      if (done_[item.dep_items[d]] < 0) {
        ++pending;
      }
    }
    pending_[i] = pending;
    ++enqueued_;
    const int s = item.stream;
    if (queued_[s]++ == 0) {
      head_[s] = static_cast<int>(i);
    }
    MaybeDispatch(s);
    ++in_flight_;
  }

  // Gpu::MaybeDispatch: the head begins after the SM setup gap.
  void MaybeDispatch(int s) {
    if (dispatched_[s] || queued_[s] == 0 || pending_[head_[s]] > 0) {
      return;
    }
    dispatched_[s] = true;
    slots_.Schedule(kBegin0 + s, slots_.now() + exec_overhead_);
  }

  // Gpu::FinishKernel: woken dependents dispatch first, then the launcher's
  // done listener resumes a blocked issue, then the stream's next head.
  void Finish(int i) {
    done_[i] = slots_.now();
    ++completed_;
    const int s = items_[i].stream;
    OOBP_CHECK(queued_[s] > 0 && head_[s] == i);
    if (--queued_[s] > 0) {
      head_[s] = graph_.next_on_stream[i];
    }
    dispatched_[s] = false;
    // Only dependents enqueued so far registered with this item; later
    // ones saw it done. Enqueue order is index order.
    for (int k = graph_.dependents_begin[i]; k < graph_.dependents_begin[i + 1];
         ++k) {
      const int j = graph_.dependents[k];
      if (static_cast<size_t>(j) >= enqueued_) {
        break;
      }
      OOBP_CHECK_GT(pending_[j], 0);
      if (--pending_[j] == 0) {
        MaybeDispatch(items_[j].stream);
      }
    }
    if (in_flight_ > 0) {
      --in_flight_;
    }
    if (blocked_ && in_flight_ < queue_depth_) {
      blocked_ = false;
      IssueNext();
    }
    MaybeDispatch(s);
  }

  const std::vector<IssueItem>& items_;
  const size_t n_;
  const bool per_op_;
  const int queue_depth_;
  const TimeNs exec_overhead_;
  const TimeNs graph_launch_latency_;
  const bool record_;

  EventSlots<kSlots> slots_;
  std::vector<BusyIncrement> increments_;
  StreamFluid<2> fluid_;

  // Launcher.
  size_t next_index_ = 0;
  size_t issuing_ = 0;
  int in_flight_ = 0;
  bool blocked_ = false;

  // Streams: queued_[s] issued-but-unfinished items, head_[s] the oldest.
  int queued_[2] = {0, 0};
  int head_[2] = {-1, -1};
  bool dispatched_[2] = {false, false};

  // Kernels.
  const IssueGraph graph_;
  std::vector<int> pending_;
  std::vector<TimeNs> start_;
  std::vector<TimeNs> done_;  // -1 until the item completes
  size_t enqueued_ = 0;
  size_t completed_ = 0;
};

}  // namespace

TrainSimOutcome ExecuteTraining(const SingleGpuConfig& config,
                                const CostModel& cost, const NnModel& model,
                                const IterationSchedule& schedule,
                                int iterations, bool record) {
  const TrainIssuePlan plan =
      BuildTrainIssuePlan(model, schedule, cost, iterations, /*main_stream=*/0,
                          /*sub_stream=*/1, /*label_items=*/false);
  TrainSimOutcome out =
      TwoStreamExecutor(config, plan, record).Run(plan.iter_last_item);
  SimEngine::AddProcessedEvents(out.events);
  return out;
}

namespace {

// Truncated-window length: warm-up (iteration 0) + the detection window
// (iterations 1..3) + a guard tail. The guard covers end effects that make
// the *last* iterations of any run differ from steady state: with no
// successor kernels fluid contention drops, and the launcher's bounded issue
// queue stops exerting back-pressure once fewer than `issue_queue_depth`
// items remain un-issued — about ceil(depth / ops_per_iter) iterations of
// lookahead, plus slack. Detection therefore only inspects iterations that
// sit at least 2 + lookahead iterations before the truncated stream's end.
int ReplayWindowIterations(int issue_queue_depth, size_t ops_per_iter) {
  const size_t depth =
      issue_queue_depth > 0 ? static_cast<size_t>(issue_queue_depth) : 0;
  const size_t lookahead = (depth + ops_per_iter - 1) / ops_per_iter;
  return static_cast<int>(4 + 2 + lookahead);
}

// Proves the truncated run is iteration-periodic over iterations 1..3: every
// per-position kernel start and completion time advances by exactly the same
// integer period P, the iteration boundaries advance by P, and the
// busy-integral increment blocks of iterations 2 and 3 — (E[1], E[2]] and
// (E[2], E[3]] — are identical term by term (time shifted by P, values
// bitwise equal; for finite nonzero doubles == is bitwise).
bool DetectSteadyPeriod(const TrainSimOutcome& out, size_t ops,
                        TimeNs* period) {
  const std::vector<TimeNs>& E = out.iter_end;
  const TimeNs p = E[3] - E[2];
  if (p <= 0 || E[2] - E[1] != p) {
    return false;
  }
  for (size_t q = 0; q < ops; ++q) {
    const size_t i1 = 1 * ops + q, i2 = 2 * ops + q, i3 = 3 * ops + q;
    if (out.item_done[i2] - out.item_done[i1] != p ||
        out.item_done[i3] - out.item_done[i2] != p ||
        out.item_start[i2] - out.item_start[i1] != p ||
        out.item_start[i3] - out.item_start[i2] != p) {
      return false;
    }
  }
  // Increment times are non-decreasing (recorded in event order), so the
  // three block boundaries are prefix scans.
  const std::vector<BusyIncrement>& inc = out.increments;
  size_t a = 0;
  while (a < inc.size() && inc[a].time <= E[1]) ++a;
  size_t b = a;
  while (b < inc.size() && inc[b].time <= E[2]) ++b;
  size_t c = b;
  while (c < inc.size() && inc[c].time <= E[3]) ++c;
  if (b - a != c - b) {
    return false;
  }
  for (size_t k = 0; k < b - a; ++k) {
    if (inc[b + k].time - inc[a + k].time != p ||
        inc[b + k].value != inc[a + k].value) {
      return false;
    }
  }
  *period = p;
  return true;
}

// Rebuilds the busy integral the full simulation would have computed, in its
// exact addition order: every increment up to E[3], then the steady block
// (E[2], E[3]] once per extrapolated iteration, then the truncated run's
// tail. A left fold in this order matches the full run's accumulation
// sequence because its extra iterations insert exactly that block (time
// shifted) between the detection window and the stream's final iterations —
// order-preserving insertion keeps the floating-point sum bit-identical.
double RefoldBusyIntegral(const std::vector<BusyIncrement>& inc, TimeNs e2,
                          TimeNs e3, int64_t extra_iterations) {
  double total = 0.0;
  size_t i = 0;
  size_t block_begin = 0;
  for (; i < inc.size() && inc[i].time <= e3; ++i) {
    if (inc[i].time <= e2) {
      ++block_begin;
    }
    total += inc[i].value;
  }
  const size_t block_end = i;
  for (int64_t r = 0; r < extra_iterations; ++r) {
    for (size_t k = block_begin; k < block_end; ++k) {
      total += inc[k].value;
    }
  }
  for (; i < inc.size(); ++i) {
    total += inc[i].value;
  }
  return total;
}

}  // namespace

TrainMetrics SingleGpuEngine::Run(const NnModel& model,
                                  const IterationSchedule& schedule,
                                  TraceRecorder* trace,
                                  ReplayStats* replay_stats) const {
  const CostModel cost(config_.gpu, config_.profile);
  const int iterations = 1 + config_.measured_iterations;  // 1 warm-up
  const size_t ops = schedule.ops.size();
  OOBP_CHECK_GT(ops, 0u) << "SingleGpuEngine: empty schedule for model '"
                         << model.name << "'";

  ReplayStats local_stats;
  ReplayStats& stats = replay_stats != nullptr ? *replay_stats : local_stats;
  stats = ReplayStats();
  stats.total_iterations = iterations;

  // The executor reproduces the event path bit for bit; only the event
  // path emits trace events and feeds the SimValidator's device observers.
  stats.executor = trace == nullptr && ActiveHwValidationHooks() == nullptr;
  auto simulate = [&](int iters, bool record) {
    return stats.executor
               ? ExecuteTraining(config_, cost, model, schedule, iters, record)
               : SimulateTraining(config_, cost, model, schedule, iters, trace,
                                  record);
  };

  TrainSimOutcome out;
  TimeNs first_end = 0;
  TimeNs final_end = 0;
  double busy = 0.0;
  bool extrapolated = false;

  if (trace != nullptr) {
    stats.fallback_reason = "traced";
  } else {
    const int window_iters =
        ReplayWindowIterations(config_.profile.issue_queue_depth, ops);
    if (iterations <= window_iters) {
      stats.fallback_reason = "short-run";
    } else {
      stats.attempted = true;
      out = simulate(window_iters, /*record=*/true);
      TimeNs period = 0;
      if (DetectSteadyPeriod(out, ops, &period)) {
        const int64_t extra = iterations - window_iters;
        stats.replayed = true;
        stats.simulated_iterations = window_iters;
        first_end = out.iter_end[0];
        final_end = out.iter_end[window_iters - 1] + extra * period;
        busy = RefoldBusyIntegral(out.increments, out.iter_end[2],
                                  out.iter_end[3], extra);
        extrapolated = true;
      } else {
        stats.fallback_reason = "aperiodic";
      }
    }
  }
  if (!extrapolated) {
    out = simulate(iterations, /*record=*/false);
    stats.simulated_iterations = iterations;
    first_end = out.iter_end.front();
    final_end = out.iter_end.back();
    busy = out.busy_integral;
  }

  TrainMetrics metrics;
  const TimeNs window = final_end - first_end;
  metrics.iteration_time = window / config_.measured_iterations;
  metrics.throughput =
      static_cast<double>(model.batch) / ToSec(metrics.iteration_time);
  const double capacity = static_cast<double>(config_.gpu.slot_capacity());
  if (window > 0) {
    metrics.gpu_utilization =
        busy / (capacity * static_cast<double>(final_end));
  }

  // Memory: schedule-dependent activation peak plus the static base, under
  // the framework's allocator overhead.
  const MemoryTimeline mem =
      EstimateBackpropMemory(model, schedule.MergedOrder());
  metrics.peak_memory_bytes = static_cast<int64_t>(
      static_cast<double>(mem.peak_total()) * config_.profile.allocator_overhead);
  metrics.oom = metrics.peak_memory_bytes > config_.gpu.mem_bytes;
  return metrics;
}

}  // namespace oobp

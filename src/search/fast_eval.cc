#include "src/search/fast_eval.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "src/common/check.h"
#include "src/hw/gpu.h"  // EffectiveOccupancy
#include "src/nn/model_cache.h"
#include "src/sim/fluid.h"

namespace oobp {

namespace {

// Mirrors ScheduleEvaluator: one warm-up plus two measured iterations.
constexpr int kIterations = 3;
constexpr TimeNs kNoTime = std::numeric_limits<TimeNs>::max();

std::atomic<uint64_t> g_total_analytic_evals{0};

// The analytic machine's state: per stream at most one dispatched kernel
// paying its setup gap and one draining kernel.
struct SweepState {
  TimeNs now = 0;
  // Dispatched item count per stream (flat index into the per-stream
  // issue sequence across iterations). The dispatched/completed tests
  // derive from these cursors plus the in-flight slots below, so no
  // per-item done flags are kept.
  uint64_t ptr[2] = {0, 0};
  int32_t pend[2] = {-1, -1};   // dispatched, paying exec overhead
  TimeNs pend_at[2] = {0, 0};   // its execution start time
  int32_t run[2] = {-1, -1};    // occupying fluid slots
  double rem[2] = {0.0, 0.0};   // remaining work (rate*ns)
  double occ[2] = {0.0, 0.0};   // max_rate of the running kernel
  uint64_t started_seq[2] = {0, 0};  // fluid job seq (completion order)
  uint64_t next_seq = 1;        // mirrors FluidProcessor::next_id_
  uint32_t completed = 0;
  TimeNs iter_end[kIterations] = {0, 0, 0};  // per-iteration completion maxima
};

}  // namespace

FastScheduleEvaluator::FastScheduleEvaluator(const NnModel* model,
                                             const GpuSpec& gpu,
                                             const SystemProfile& profile)
    : model_(model),
      cost_(CachedCostModel(gpu, profile)),
      capacity_(static_cast<double>(gpu.slot_capacity())),
      exec_overhead_(gpu.kernel_exec_overhead),
      t0_(profile.graph_launch_latency) {
  OOBP_CHECK(model_ != nullptr);
  cost_table_.resize(static_cast<size_t>(model_->num_layers()) * 4);
}

uint64_t FastScheduleEvaluator::TotalAnalyticEvals() {
  return g_total_analytic_evals.load(std::memory_order_relaxed);
}

void FastScheduleEvaluator::RebuildMeta(const IterationSchedule& schedule) {
  const size_t n = schedule.ops.size();
  deps_ = IterationDeps(schedule, model_->num_layers());
  OOBP_CHECK_GE(deps_.last_fwd, 0) << "schedule has no F[L-1]";
  meta_.resize(n);
  rank_.resize(n);
  seq_[0].clear();
  seq_[1].clear();
  for (size_t p = 0; p < n; ++p) {
    const ScheduledOp& s = schedule.ops[p];
    CostEntry& ce = cost_table_[static_cast<size_t>(s.op.layer) * 4 +
                                static_cast<size_t>(s.op.type)];
    if (!ce.init) {
      const KernelCost kc =
          cost_->Cost(model_->layers[static_cast<size_t>(s.op.layer)],
                      s.op.type);
      ce.occ = EffectiveOccupancy(kc.thread_blocks, capacity_);
      ce.work = static_cast<double>(kc.duration) * ce.occ;
      ce.init = true;
    }
    const uint8_t stream = s.stream == kSubStream ? 1 : 0;
    meta_[p] = {ce.occ, ce.work, stream};
    rank_[p] = static_cast<int32_t>(seq_[stream].size());
    seq_[stream].push_back(static_cast<int32_t>(p));
  }
}

TimeNs FastScheduleEvaluator::IterationTime(const IterationSchedule& schedule) {
  const size_t n = schedule.ops.size();
  OOBP_CHECK_GT(n, 0u);
  ++evaluations_;
  g_total_analytic_evals.fetch_add(1, std::memory_order_relaxed);
  RebuildMeta(schedule);
  return RunSweep(n);
}

TimeNs FastScheduleEvaluator::RunSweep(size_t n) {
  const int32_t num_items = static_cast<int32_t>(kIterations * n);
  const int32_t ni = static_cast<int32_t>(n);
  const uint64_t len[2] = {seq_[0].size(), seq_[1].size()};

  SweepState st;
  st.now = t0_;
  // Division-free cursors and in-flight iteration tags.
  uint64_t idx[2] = {0, 0};     // ptr[s] % len[s], kept incrementally
  int32_t itr[2];               // ptr[s] / len[s] (head's iteration)
  int32_t pend_it[2] = {0, 0};  // iteration of pend[s]
  int32_t run_it[2] = {0, 0};   // iteration of run[s]
  for (int s = 0; s < 2; ++s) {
    itr[s] = len[s] == 0 ? kIterations : 0;  // an empty stream never dispatches
  }

  const auto head_item = [&](int s) -> int32_t {
    if (itr[s] >= kIterations) {
      return -1;
    }
    return itr[s] * ni + seq_[s][idx[s]];
  };
  // An item is complete iff its stream already dispatched past it and it is
  // not one of the (at most four) in-flight slots — no per-item flags.
  // Callers always know the item's (iteration, position) pair, keeping this
  // free of integer division.
  const auto item_done = [&](int32_t iter, int32_t p) {
    const int s = meta_[static_cast<size_t>(p)].stream;
    const uint64_t flat =
        static_cast<uint64_t>(iter) * len[s] +
        static_cast<uint64_t>(rank_[static_cast<size_t>(p)]);
    if (flat >= st.ptr[s]) {
      return false;
    }
    const int32_t item = iter * ni + p;
    return item != st.pend[0] && item != st.pend[1] && item != st.run[0] &&
           item != st.run[1];
  };
  const auto deps_done = [&](int32_t t, int32_t p) {
    const OpDeps& d = deps_.ops[static_cast<size_t>(p)];
    for (const int q : d.dep) {
      if (q >= 0 && !item_done(t, q)) {
        return false;
      }
    }
    return !d.prev_fwd || t == 0 || item_done(t - 1, deps_.last_fwd);
  };
  // Gpu::BeginExecution: stream s's dispatched kernel starts running.
  // Returns its work.
  const auto begin = [&](int s) {
    const int32_t item = st.pend[s];
    const PosMeta& m = meta_[static_cast<size_t>(item - pend_it[s] * ni)];
    st.pend[s] = -1;
    st.run[s] = item;
    run_it[s] = pend_it[s];
    st.occ[s] = m.occ;
    st.rem[s] = m.work;
    st.started_seq[s] = st.next_seq++;
    return m.work;
  };
  // Priority-greedy slot allocation, exactly FluidProcessor::Reallocate():
  // the main stream (priority 0) is allocated before the sub stream.
  const auto rates = [&](double r[2]) {
    double free = capacity_;
    for (int s = 0; s < 2; ++s) {
      r[s] = st.run[s] >= 0 ? std::min(st.occ[s], free) : 0.0;
      free -= r[s];
    }
  };

  // Iteration 0's F_{L-1} completed in the current fixpoint.
  bool barrier = false;
  // The barrier rule (src/core/schedule.h), for a launch: iteration 0 has
  // completed, no kernel drains, and each dispatched kernel, the first of
  // its stream in iteration 1, was dispatched at this instant. The launch
  // left exactly that state at t0 with iteration 0's first kernels, since
  // a first kernel is ready at both instants iff it waits on nothing in
  // its own iteration; so every later iteration repeats iteration 0.
  const auto clean_barrier = [&] {
    for (int s = 0; s < 2; ++s) {
      const bool pending = st.pend[s] >= 0;
      if (st.run[s] >= 0 || st.ptr[s] != len[s] + (pending ? 1 : 0) ||
          (pending && st.pend_at[s] != st.now + exec_overhead_)) {
        return false;
      }
    }
    return true;
  };

  // Processes everything due at st.now to a fixpoint: fluid completions (in
  // job-seq order, as FluidProcessor::Advance does), execution begins whose
  // setup gap elapsed, then dispatches of ready stream heads. A zero
  // exec-overhead spec chains dispatch -> begin at one instant, hence the
  // loop.
  const auto process_now = [&] {
    bool again = true;
    while (again) {
      // A pass orders its scans completion -> begin -> dispatch, which is
      // exactly the enabling order: completions unblock begins' streams and
      // dispatches' deps, begins only occupy slots, dispatches change
      // nothing observable until their begin. So one pass reaches the
      // fixpoint except for the two same-instant chains flagged below: a
      // zero-overhead dispatch whose begin is already due, and a zero-work
      // begin whose completion is already due.
      again = false;
      int order[2] = {0, 1};
      if (st.run[0] >= 0 && st.run[1] >= 0 &&
          st.started_seq[1] < st.started_seq[0]) {
        order[0] = 1;
        order[1] = 0;
      }
      for (const int s : order) {
        if (st.run[s] >= 0 && st.rem[s] <= FluidProcessor::kWorkEpsilon) {
          barrier =
              barrier || (run_it[s] == 0 && st.run[s] == deps_.last_fwd);
          st.run[s] = -1;
          TimeNs& end = st.iter_end[static_cast<size_t>(run_it[s])];
          end = std::max(end, st.now);
          ++st.completed;
        }
      }
      for (int s = 0; s < 2; ++s) {
        if (st.pend[s] >= 0 && st.pend_at[s] <= st.now) {
          const double work = begin(s);
          again = again || work <= FluidProcessor::kWorkEpsilon;
        }
      }
      for (int s = 0; s < 2; ++s) {
        if (st.pend[s] >= 0 || st.run[s] >= 0) {
          continue;  // stream occupied (head_dispatched semantics)
        }
        const int32_t head = head_item(s);
        if (head < 0 || !deps_done(itr[s], seq_[s][idx[s]])) {
          continue;
        }
        ++st.ptr[s];
        st.pend[s] = head;
        pend_it[s] = itr[s];
        st.pend_at[s] = st.now + exec_overhead_;
        if (++idx[s] == len[s]) {
          idx[s] = 0;
          ++itr[s];
        }
        again = again || exec_overhead_ == 0;
      }
    }
  };

  process_now();  // the launch
  while (st.completed < static_cast<uint32_t>(num_items)) {
    // Next wake: the earliest fluid completion (exactly the simulator's
    // wake formula) or pending execution begin. The rates are computed
    // once and reused for the work integration below — they are a pure
    // function of state, so this matches the original double evaluation.
    double r[2];
    rates(r);
    TimeNs next = kNoTime;
    double min_tta = -1.0;
    for (int s = 0; s < 2; ++s) {
      if (st.run[s] >= 0 && r[s] > 0.0) {
        const double tta = st.rem[s] / r[s];
        if (min_tta < 0.0 || tta < min_tta) {
          min_tta = tta;
        }
      }
    }
    if (min_tta >= 0.0) {
      next = st.now + FluidProcessor::WakeDelay(min_tta, st.now);
    }
    for (int s = 0; s < 2; ++s) {
      if (st.pend[s] >= 0) {
        next = std::min(next, st.pend_at[s]);
      }
    }
    OOBP_CHECK_LT(next, kNoTime) << "analytic sweep deadlocked";
    OOBP_CHECK_GT(next, st.now);
    const double dt = static_cast<double>(next - st.now);
    bool completion = false;
    for (int s = 0; s < 2; ++s) {
      if (st.run[s] >= 0) {
        st.rem[s] = std::max(0.0, st.rem[s] - r[s] * dt);
        completion = completion || st.rem[s] <= FluidProcessor::kWorkEpsilon;
      }
    }
    st.now = next;
    if (!completion) {
      // Begin-only wake: the fluid wake always lands on a completion (the
      // integration above drives the argmin stream to zero), so `next` came
      // from a pend_at. Without a completion no dependency changed, hence
      // no stream can newly dispatch — a full fixpoint pass would only
      // perform these pend -> run transitions. Doing them inline (in the
      // same s order) is exact; the sole exception is a zero-work kernel,
      // which would complete at this same instant and needs the full pass.
      bool fast = true;
      for (int s = 0; s < 2; ++s) {
        if (st.pend[s] >= 0 && st.pend_at[s] <= st.now &&
            meta_[static_cast<size_t>(st.pend[s] - pend_it[s] * ni)].work <=
                FluidProcessor::kWorkEpsilon) {
          fast = false;
        }
      }
      if (fast) {
        for (int s = 0; s < 2; ++s) {
          if (st.pend[s] >= 0 && st.pend_at[s] <= st.now) {
            begin(s);
          }
        }
        continue;
      }
    }
    process_now();
    if (barrier) {
      if (clean_barrier()) {
        return st.iter_end[0] - t0_;
      }
      barrier = false;
    }
  }

  return (st.iter_end[kIterations - 1] - st.iter_end[0]) / (kIterations - 1);
}

}  // namespace oobp


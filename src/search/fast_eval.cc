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
// Minimum item-index gap between consecutive sweep checkpoints.
constexpr int32_t kSweepStride = 16;

std::atomic<uint64_t> g_total_analytic_evals{0};

bool SameOp(const ScheduledOp& a, const ScheduledOp& b) {
  return a.op == b.op && a.stream == b.stream &&
         a.wait_for_index == b.wait_for_index;
}

// First position where `ops` disagrees with the cached copy (or one of them
// ends); min(sizes) when the shorter is a prefix of the longer.
size_t DiffPosition(const std::vector<ScheduledOp>& cached,
                    const std::vector<ScheduledOp>& ops) {
  const size_t bound = std::min(cached.size(), ops.size());
  size_t p = 0;
  while (p < bound && SameOp(cached[p], ops[p])) {
    ++p;
  }
  return p;
}

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

  // A checkpoint keyed at or before the first differing position saw only
  // positions both candidates share.
  const size_t p_diff = DiffPosition(ops_, schedule.ops);
  while (!sweep_ckpts_.empty() &&
         sweep_ckpts_.back().next_item > static_cast<int32_t>(p_diff)) {
    sweep_ckpts_.pop_back();
  }
  ops_ = schedule.ops;
  RebuildMeta(schedule);
  return RunSweep(n);
}

TimeNs FastScheduleEvaluator::RunSweep(size_t n) {
  const int32_t num_items = static_cast<int32_t>(kIterations * n);
  const int32_t ni = static_cast<int32_t>(n);
  const uint64_t len[2] = {seq_[0].size(), seq_[1].size()};

  SweepState st;
  if (!sweep_ckpts_.empty()) {
    st = sweep_ckpts_.back().state;
  } else {
    st.now = t0_;
  }

  // Division-free cursors and in-flight iteration tags, re-derived on every
  // (re)start. Checkpoints are only ever pushed while max_disp < n — no
  // item of a later iteration dispatched yet — so a restored state has both
  // stream cursors still inside their first pass (ptr <= len) and every
  // in-flight slot in iteration 0; the derivations below are exact.
  uint64_t idx[2];              // ptr[s] % len[s], kept incrementally
  int32_t itr[2];               // ptr[s] / len[s] (head's iteration)
  int32_t pend_it[2] = {0, 0};  // iteration of pend[s]
  int32_t run_it[2] = {0, 0};   // iteration of run[s]
  for (int s = 0; s < 2; ++s) {
    OOBP_CHECK_LE(st.ptr[s], len[s]);
    if (len[s] == 0) {
      idx[s] = 0;
      itr[s] = kIterations;  // stream never dispatches
    } else if (st.ptr[s] == len[s]) {
      idx[s] = 0;
      itr[s] = 1;
    } else {
      idx[s] = st.ptr[s];
      itr[s] = 0;
    }
  }

  const auto head_item = [&](int s) -> int32_t {
    if (itr[s] >= kIterations) {
      return -1;
    }
    return itr[s] * ni + seq_[s][idx[s]];
  };
  // An item is complete iff its stream already dispatched past it and it is
  // not one of the (at most four) in-flight slots — no per-item flags, so
  // checkpoints stay O(1). Callers always know the item's (iteration,
  // position) pair, keeping this free of integer division.
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

  // --- steady-state periodicity skip ---------------------------------------
  // Iteration t+1's backward cannot start before iteration t's last forward
  // (F_{L-1}) completes: dO[L-1] / the final dW carries the cross-iteration
  // dep, every other backward op transitively depends on it, and streams
  // run their items strictly sequentially. So the machine state right after
  // that completion is a natural per-iteration anchor: no item of iteration
  // t+2 can have been dispatched yet. If the anchors of iterations 0 and 1
  // are equal modulo the shift (item indices + n, stream cursors + one
  // pass, times + delta), the pipeline has reached its steady-state period
  // and the whole segment anchor(1) -> anchor(2) is a delta-shifted replica
  // of anchor(0) -> anchor(1) — every float op lands on identical values —
  // so iteration 2's middle is fast-forwarded by applying the shift
  // directly and resuming the fixpoint in place. Any mismatch simply
  // falls back to simulating all three iterations; the skip never
  // approximates. A sweep that resumes from a checkpoint taken after the
  // iteration-0 anchor has none and simulates all three.
  SweepState anchor_st;
  bool anchor_valid = false;
  bool skipped = false;

  const auto norm_equal = [&]() -> bool {
    for (int s = 0; s < 2; ++s) {
      // Anchor cursors are re-derived from the stored dispatch counts the
      // same way the restart block above does it: at the anchor both
      // streams are still in their first pass (asserted at capture).
      if (len[s] == 0) {
        if (st.ptr[s] != anchor_st.ptr[s] || itr[s] != kIterations) {
          return false;
        }
      } else {
        const uint64_t a_idx =
            anchor_st.ptr[s] == len[s] ? 0 : anchor_st.ptr[s];
        const int32_t a_itr = anchor_st.ptr[s] == len[s] ? 1 : 0;
        if (st.ptr[s] != anchor_st.ptr[s] + len[s] || itr[s] != a_itr + 1 ||
            idx[s] != a_idx) {
          return false;
        }
      }
      // Every in-flight slot at the anchor is an iteration-0 item, so the
      // matching slot here must be the same position one iteration up.
      if ((st.pend[s] >= 0) != (anchor_st.pend[s] >= 0)) {
        return false;
      }
      if (st.pend[s] >= 0 &&
          (st.pend[s] != anchor_st.pend[s] + ni || pend_it[s] != 1 ||
           st.pend_at[s] - st.now !=
               anchor_st.pend_at[s] - anchor_st.now)) {
        return false;
      }
      if ((st.run[s] >= 0) != (anchor_st.run[s] >= 0)) {
        return false;
      }
      if (st.run[s] >= 0 &&
          (st.run[s] != anchor_st.run[s] + ni || run_it[s] != 1 ||
           st.rem[s] != anchor_st.rem[s] ||
           st.occ[s] != anchor_st.occ[s])) {
        return false;
      }
    }
    // Stale seq values of empty slots are never read again (a begin always
    // overwrites first), so the only order-relevant residue is which of the
    // two last begins came first.
    return (st.started_seq[1] < st.started_seq[0]) ==
           (anchor_st.started_seq[1] < anchor_st.started_seq[0]);
  };

  const auto apply_shift = [&] {
    const TimeNs delta = st.now - anchor_st.now;
    const uint32_t comp_delta = st.completed - anchor_st.completed;
    // Completions in the skipped segment replicate the previous segment's
    // one iteration up: iter_end[2] becomes the mirrored iter_end[1] and
    // iter_end[1] absorbs the mirror of the iteration-0 stragglers (if the
    // previous segment raised iter_end[0], the same completions recur at
    // +delta; otherwise every mirrored time is already <= iter_end[1]).
    st.iter_end[2] = st.iter_end[1] + delta;
    if (st.iter_end[0] > anchor_st.iter_end[0]) {
      st.iter_end[1] = std::max(st.iter_end[1], st.iter_end[0] + delta);
    }
    st.now += delta;
    st.completed += comp_delta;
    st.max_disp += ni;
    for (int s = 0; s < 2; ++s) {
      st.ptr[s] += len[s];
      if (len[s] > 0) {
        ++itr[s];
      }
      if (st.pend[s] >= 0) {
        st.pend[s] += ni;
        st.pend_at[s] += delta;
      }
      if (st.run[s] >= 0) {
        st.run[s] += ni;
      }
      ++pend_it[s];
      ++run_it[s];
    }
  };

  // Called from the completion scan right after the last forward of
  // iteration `t` completes — before any same-instant dispatch, so no
  // iteration-(t+2) item is in flight yet.
  const auto on_anchor = [&](int32_t t) {
    if (t == 0) {
      for (int s = 0; s < 2; ++s) {
        OOBP_CHECK_LE(st.ptr[s], len[s]);
      }
      anchor_st = st;
      anchor_valid = true;
    } else if (anchor_valid && norm_equal()) {
      apply_shift();
      skipped = true;
    }
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
          const int32_t done_pos = st.run[s] - run_it[s] * ni;
          const int32_t done_it = run_it[s];
          st.run[s] = -1;
          TimeNs& end = st.iter_end[static_cast<size_t>(run_it[s])];
          end = std::max(end, st.now);
          ++st.completed;
          if (done_pos == deps_.last_fwd && done_it < 2 && !skipped) {
            on_anchor(done_it);
          }
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
        if (head > st.max_disp) {
          // The machine state at this instant depends only on items with a
          // smaller index; snapshot it so a candidate differing first at a
          // later position can resume here. Only first-iteration keys are
          // useful — a mutation always perturbs iteration 0.
          if (head < ni &&
              (sweep_ckpts_.empty() ||
               head >= sweep_ckpts_.back().next_item + kSweepStride)) {
            sweep_ckpts_.push_back({head, st});
          }
          st.max_disp = head;
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

  process_now();  // cold start / checkpoint re-dispatch
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
  }

  return (st.iter_end[kIterations - 1] - st.iter_end[0]) / (kIterations - 1);
}

}  // namespace oobp


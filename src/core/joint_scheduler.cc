#include "src/core/joint_scheduler.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/check.h"

namespace oobp {

namespace {

thread_local PlannerWork t_work;

// Memo entries: kStale marks entries to (re)compute; kBlocked marks pairs
// that are not runnable at the region's clock; any other value is a
// quantized speedup (>= 100).
constexpr int64_t kStale = -2;
constexpr int64_t kBlocked = -1;

// Quantize to percent so float noise does not override the tie-break; among
// near-equal speedups prefer the earliest region (shorter tensor lifetimes,
// lower memory pressure) and the lowest layer.
int64_t Percent(double speedup) {
  return static_cast<int64_t>(std::llround(100.0 * speedup));
}

// What every memory-fallback pass of one plan shares: per-layer facts, the
// main stream's layout, and each region's memo row at clock 0.
struct PlanTables {
  int num_layers = 0;
  // ReadyPoint, DeadlineRegion and SoloTime of each dW, as dense per-layer
  // arrays (ready_region -1 for layers without weights).
  std::vector<int> ready_region;
  std::vector<TimeNs> ready_offset;
  std::vector<int> deadline;
  std::vector<TimeNs> solo;
  // Layers with weights by descending solo time, ties by ascending layer:
  // the order in which a region's speedup bound never rises.
  std::vector<int> by_solo;
  // start_rows[r * num_layers + i]: the memo entry of (region r, dW_i) at
  // r's clock 0. An entry, "blocked" included, is a pure function of
  // (region, layer, clock), and every pass starts each region at clock 0.
  std::vector<int64_t> start_rows;
  // The main stream in issue order; region -> position of its first main op;
  // dO layer -> position, -1 when absent (one extra slot so the producer
  // index layer+1 == L needs no bounds branch).
  std::vector<TrainOp> main_ops;
  std::vector<int> region_first_main;
  std::vector<int> dgrad_pos;
};

PlanTables MakePlanTables(const TrainGraph& graph,
                          const CorunProfiler& profiler) {
  const int L = graph.num_layers();
  const int N = profiler.num_regions();
  PlanTables t;
  t.num_layers = L;
  t.ready_region.assign(L, -1);
  t.ready_offset.assign(L, 0);
  t.deadline.assign(L, N);
  t.solo.assign(L, 0);
  for (int i = 0; i < L; ++i) {
    if (!graph.HasWgrad(i)) {
      continue;
    }
    const TrainOp op{TrainOpType::kWeightGrad, i};
    const auto rp = profiler.ReadyPoint(op);
    t.ready_region[i] = rp.first;
    t.ready_offset[i] = rp.second;
    t.deadline[i] = profiler.DeadlineRegion(op);
    t.solo[i] = profiler.SoloTime(op);
    t.by_solo.push_back(i);
  }
  std::sort(t.by_solo.begin(), t.by_solo.end(), [&t](int a, int b) {
    return t.solo[a] != t.solo[b] ? t.solo[a] > t.solo[b] : a < b;
  });
  t.start_rows.assign(static_cast<size_t>(N) * L, kStale);

  t.region_first_main.assign(N, 0);
  t.dgrad_pos.assign(L + 1, -1);
  for (int r = 0; r < N; ++r) {
    t.region_first_main[r] = static_cast<int>(t.main_ops.size());
    for (const TrainOp& op : profiler.region(r).main_ops) {
      if (op.type == TrainOpType::kOutputGrad) {
        t.dgrad_pos[op.layer] = static_cast<int>(t.main_ops.size());
      }
      t.main_ops.push_back(op);
    }
  }
  return t;
}

// Runs the greedy core of Algorithm 1 with the first `pre_k` backward
// regions pre-scheduled eagerly. Returns per-region ordered dW layer lists.
std::vector<std::vector<int>> RunAlgorithm1(const CorunProfiler& profiler,
                                            PlanTables& t, int pre_k) {
  const int L = t.num_layers;
  const int N = profiler.num_regions();
  std::vector<std::vector<int>> region_order(N);
  ++t_work.passes;

  // Pre-scheduled regions: run as soon as ready, in readiness order.
  for (int i = 0; i < L; ++i) {
    if (t.ready_region[i] >= 0 && t.ready_region[i] < pre_k) {
      region_order[t.ready_region[i]].push_back(i);
    }
  }
  // U <- {dW_i | layer i has weights}, minus eagerly pre-scheduled ones, in
  // scan order.
  std::vector<int> pending;
  pending.reserve(t.by_solo.size());
  for (int i : t.by_solo) {
    if (t.ready_region[i] >= pre_k) {
      pending.push_back(i);
    }
  }
  std::vector<int> candidates(N - pre_k);
  std::iota(candidates.begin(), candidates.end(), pre_k);

  std::vector<TimeNs> now(N, 0);
  // SpeedupAt(r, i, now[r]) only changes when now[r] advances, which happens
  // once per committed kernel, so each region keeps a memo row by layer.
  // It reads the plan's shared start row until its clock first moves, then
  // a row of its own, made stale at every commit (readiness is a function of
  // now[r] too).
  std::vector<int64_t*> memo(N);
  std::vector<std::vector<int64_t>> own_rows(N);
  for (int r = 0; r < N; ++r) {
    memo[r] = t.start_rows.data() + static_cast<size_t>(r) * L;
  }
  // Per-region winner over the pending set: (quantized speedup, layer),
  // layer -1 when nothing is runnable. A region's winner only changes when
  // its clock moves or when its cached winning layer gets committed
  // elsewhere, so most iterations rescan one or two regions instead of
  // every (region, kernel) pair.
  struct RegionBest {
    int64_t speedup = -1;
    int layer = -1;
  };
  std::vector<RegionBest> region_best(N);
  std::vector<char> best_valid(N, 0);

  while (!pending.empty() && !candidates.empty()) {
    // Lines 4-8: per candidate region, the runnable dW with max speedup;
    // then the globally best (region, kernel) pair.
    int best_region = -1;
    int best_layer = -1;
    int64_t best_speedup = -1;
    for (int r : candidates) {
      if (!best_valid[r]) {
        int64_t* row = memo[r];
        // The joint makespan is at least main_left, so (main_left + solo) /
        // main_left bounds a kernel's speedup from above, and it never rises
        // along the scan order. Once it falls below the best found, no later
        // kernel can win or tie, and the scan stops.
        const TimeNs main_left = profiler.MainDuration(r) - now[r];
        RegionBest rb;
        for (int i : pending) {
          int64_t p = row[i];
          if (p == kStale) {
            const bool runnable =
                (t.ready_region[i] < r) ||
                (t.ready_region[i] == r && t.ready_offset[i] <= now[r]);
            if (!runnable || r >= t.deadline[i]) {
              p = kBlocked;
            } else if (main_left > 0 &&
                       Percent(CorunSpeedup(main_left, t.solo[i],
                                            main_left)) < rb.speedup) {
              break;
            } else {
              const TrainOp op{TrainOpType::kWeightGrad, i};
              p = Percent(profiler.SpeedupAt(r, op, now[r]));
              ++t_work.speedup_evals;
            }
            row[i] = p;
          }
          if (p != kBlocked &&
              (p > rb.speedup || (p == rb.speedup && i < rb.layer))) {
            rb.speedup = p;
            rb.layer = i;
          }
        }
        region_best[r] = rb;
        best_valid[r] = 1;
      }
      const RegionBest& rb = region_best[r];
      // Ascending region iteration keeps the earliest region on ties.
      if (rb.layer >= 0 && rb.speedup > best_speedup) {
        best_speedup = rb.speedup;
        best_region = r;
        best_layer = rb.layer;
      }
    }

    if (best_region < 0) {
      // No kernel is runnable in any remaining region (deadlines exclude
      // them all), and no clock moves again, so none ever will be.
      break;
    }

    // Lines 9-11: commit, advance the region's simulated clock, retire the
    // region once its main-stream budget is spent.
    const TrainOp op{TrainOpType::kWeightGrad, best_layer};
    region_order[best_region].push_back(best_layer);
    pending.erase(std::find(pending.begin(), pending.end(), best_layer));
    now[best_region] += profiler.SubTimeAt(best_region, op, now[best_region]);
    // The region's clock moved: every memoized speedup for it is stale.
    own_rows[best_region].assign(L, kStale);
    memo[best_region] = own_rows[best_region].data();
    best_valid[best_region] = 0;
    // Other regions' memo entries are still valid, but a cached winner that
    // just got committed elsewhere must be re-picked from what remains.
    for (int r : candidates) {
      if (region_best[r].layer == best_layer) {
        best_valid[r] = 0;
      }
    }
    if (now[best_region] >= profiler.MainDuration(best_region)) {
      candidates.erase(
          std::find(candidates.begin(), candidates.end(), best_region));
    }
  }

  // Regions exhausted, or nothing runnable in them, with kernels left: place
  // each, lowest layer first, into the last region its deadline allows (but
  // not before it is ready), so the simulation stays valid — only slower.
  std::sort(pending.begin(), pending.end());
  for (int i : pending) {
    const int r = std::min(t.deadline[i] - 1, N - 1);
    region_order[std::max(r, t.ready_region[i])].push_back(i);
  }
  return region_order;
}

// Turns per-region dW lists into the interleaved two-stream issue order, and
// its gradient ops (dO and dW, in issue order) into `grads`.
IterationSchedule BuildSchedule(const TrainGraph& graph, const PlanTables& t,
                                const std::vector<std::vector<int>>& region_order,
                                std::vector<TrainOp>* grads) {
  const int N = static_cast<int>(region_order.size());
  const size_t M = t.main_ops.size();

  // For each dW: the main-op position after which it is issued. It must
  // follow both its region's first main op (placement) and its producer
  // dO_{i+1} (so the engine can reference the dependency). Sorting by that
  // position keeps region order and each region's commit order within one.
  struct SubOp {
    int pos;
    int layer;
    int region;
  };
  std::vector<SubOp> subs;
  for (int r = 0; r < N; ++r) {
    for (int layer : region_order[r]) {
      subs.push_back(
          {std::max(t.region_first_main[r], t.dgrad_pos[layer + 1]), layer, r});
    }
  }
  std::stable_sort(subs.begin(), subs.end(),
                   [](const SubOp& a, const SubOp& b) { return a.pos < b.pos; });

  IterationSchedule sched;
  sched.ops.reserve(M + 2 * subs.size());
  grads->clear();
  std::vector<int> final_main_index(M, -1);
  auto sub = subs.begin();
  for (size_t m = 0; m < M; ++m) {
    const TrainOp& main_op = t.main_ops[m];
    final_main_index[m] = static_cast<int>(sched.ops.size());
    sched.ops.push_back({main_op, kMainStream, -1});
    if (main_op.type == TrainOpType::kOutputGrad) {
      grads->push_back(main_op);
    }
    for (; sub != subs.end() && sub->pos == static_cast<int>(m); ++sub) {
      const int wait_idx = final_main_index[t.region_first_main[sub->region]];
      sched.ops.push_back(
          {{TrainOpType::kWeightGrad, sub->layer}, kSubStream, wait_idx});
      sched.ops.push_back(
          {{TrainOpType::kWeightUpdate, sub->layer}, kSubStream, -1});
      grads->push_back({TrainOpType::kWeightGrad, sub->layer});
    }
  }
  OOBP_CHECK(graph.ValidateBackpropOrder(*grads));
  return sched;
}

int CountBackwardRegions(const CorunProfiler& profiler) {
  int n = 0;
  for (int r = 0; r < profiler.num_regions(); ++r) {
    if (profiler.region(r).kind == Region::Kind::kBackward) {
      ++n;
    }
  }
  return n;
}

}  // namespace

PlannerWork ThreadPlannerWork() { return t_work; }

JointScheduleResult MultiRegionJointSchedule(const TrainGraph& graph,
                                             const CorunProfiler& profiler,
                                             const JointScheduleOptions& options) {
  const int bwd_regions = CountBackwardRegions(profiler);
  PlanTables tables = MakePlanTables(graph, profiler);
  JointScheduleResult result;
  std::vector<std::vector<int>> region_order;
  std::vector<TrainOp> grads;

  for (int pre_k = 0; pre_k <= bwd_regions; ++pre_k) {
    region_order = RunAlgorithm1(profiler, tables, pre_k);
    result.schedule = BuildSchedule(graph, tables, region_order, &grads);
    // The estimate skips every op but dO and dW, so the gradient order gives
    // the peak of the whole merged order.
    result.peak_memory = EstimateBackpropPeak(graph.model(), grads).peak;
    result.pre_scheduled_regions = pre_k;
    if (options.memory_cap_bytes < 0 ||
        result.peak_memory <= options.memory_cap_bytes) {
      break;  // within budget (or unconstrained)
    }
  }
  for (int r = 0; r < profiler.num_regions(); ++r) {
    for (int layer : region_order[r]) {
      result.assigned_ops.push_back({TrainOpType::kWeightGrad, layer});
      result.assigned_region.push_back(r);
    }
  }
  return result;
}

JointScheduleResult MakeOooSchedule(const TrainGraph& graph,
                                    const GpuSpec& gpu,
                                    const SystemProfile& profile,
                                    double memory_cap_factor) {
  const CostModel cost(gpu, profile);
  const CorunProfiler profiler(graph, cost, BuildRegions(graph));
  JointScheduleOptions opts;
  // The conventional iteration's gradient ops are its backprop order.
  const MemoryPeak conv_mem =
      EstimateBackpropPeak(graph.model(), graph.ConventionalBackprop());
  opts.memory_cap_bytes =
      static_cast<int64_t>(memory_cap_factor * conv_mem.peak);
  return MultiRegionJointSchedule(graph, profiler, opts);
}

}  // namespace oobp

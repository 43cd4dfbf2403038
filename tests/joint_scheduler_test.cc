#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/corun_profiler.h"
#include "src/core/joint_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/region.h"
#include "src/nn/model_zoo.h"

namespace oobp {
namespace {

// The plain greedy of Algorithm 1, kept as the planner's reference: a memo
// per (region, layer) and a cached winner per region, but every pending dW
// scanned in layer order with no speedup bound, and every pass starting from
// empty memo rows. The goldens were pinned with this planner;
// `MultiRegionJointSchedule` must return exactly what it returns.
namespace reference {

std::vector<std::vector<int>> RunAlgorithm1(const TrainGraph& graph,
                                            const CorunProfiler& profiler,
                                            int pre_k) {
  const int L = graph.num_layers();
  const int N = profiler.num_regions();
  std::vector<std::vector<int>> region_order(N);
  std::vector<int> ready_region(L, -1);
  std::vector<TimeNs> ready_offset(L, 0);
  std::vector<int> deadline(L, N);
  std::set<int> unscheduled;
  for (int i = 0; i < L; ++i) {
    if (!graph.HasWgrad(i)) {
      continue;
    }
    const TrainOp op{TrainOpType::kWeightGrad, i};
    const auto rp = profiler.ReadyPoint(op);
    ready_region[i] = rp.first;
    ready_offset[i] = rp.second;
    deadline[i] = profiler.DeadlineRegion(op);
    if (ready_region[i] < pre_k) {
      region_order[ready_region[i]].push_back(i);
    } else {
      unscheduled.insert(i);
    }
  }
  std::vector<TimeNs> now(N, 0);
  std::set<int> candidates;
  for (int r = pre_k; r < N; ++r) {
    candidates.insert(r);
  }
  constexpr int64_t kStale = -2;
  constexpr int64_t kBlocked = -1;
  std::vector<std::vector<int64_t>> memo(N, std::vector<int64_t>(L, kStale));
  std::vector<std::pair<int64_t, int>> region_best(N, {-1, -1});
  std::vector<char> best_valid(N, 0);
  auto last_legal = [&](int i) {
    return std::max(std::min(deadline[i] - 1, N - 1), ready_region[i]);
  };

  while (!unscheduled.empty() && !candidates.empty()) {
    int best_region = -1;
    int best_layer = -1;
    int64_t best_speedup = -1;
    for (int r : candidates) {
      if (!best_valid[r]) {
        std::pair<int64_t, int> rb{-1, -1};
        for (int i : unscheduled) {
          int64_t& p = memo[r][i];
          if (p == kStale) {
            const bool runnable =
                ready_region[i] < r ||
                (ready_region[i] == r && ready_offset[i] <= now[r]);
            p = !runnable || r >= deadline[i]
                    ? kBlocked
                    : static_cast<int64_t>(std::llround(
                          100.0 * profiler.SpeedupAt(
                                      r, {TrainOpType::kWeightGrad, i},
                                      now[r])));
          }
          if (p != kBlocked && p > rb.first) {
            rb = {p, i};
          }
        }
        region_best[r] = rb;
        best_valid[r] = 1;
      }
      if (region_best[r].second >= 0 && region_best[r].first > best_speedup) {
        best_speedup = region_best[r].first;
        best_region = r;
        best_layer = region_best[r].second;
      }
    }
    if (best_region < 0) {
      const int i = *unscheduled.begin();
      region_order[last_legal(i)].push_back(i);
      unscheduled.erase(i);
      continue;
    }
    region_order[best_region].push_back(best_layer);
    unscheduled.erase(best_layer);
    now[best_region] += profiler.SubTimeAt(
        best_region, {TrainOpType::kWeightGrad, best_layer}, now[best_region]);
    std::fill(memo[best_region].begin(), memo[best_region].end(), kStale);
    best_valid[best_region] = 0;
    for (int r : candidates) {
      if (region_best[r].second == best_layer) {
        best_valid[r] = 0;
      }
    }
    if (now[best_region] >= profiler.MainDuration(best_region)) {
      candidates.erase(best_region);
    }
  }
  for (int i : unscheduled) {
    region_order[last_legal(i)].push_back(i);
  }
  return region_order;
}

IterationSchedule BuildSchedule(
    const CorunProfiler& profiler,
    const std::vector<std::vector<int>>& region_order) {
  const int N = profiler.num_regions();
  std::vector<TrainOp> main_ops;
  std::vector<int> region_first_main(N, 0);
  std::map<int, int> dgrad_pos;
  for (int r = 0; r < N; ++r) {
    region_first_main[r] = static_cast<int>(main_ops.size());
    for (const TrainOp& op : profiler.region(r).main_ops) {
      if (op.type == TrainOpType::kOutputGrad) {
        dgrad_pos[op.layer] = static_cast<int>(main_ops.size());
      }
      main_ops.push_back(op);
    }
  }
  std::vector<std::vector<std::pair<int, int>>> attach_after(main_ops.size());
  for (int r = 0; r < N; ++r) {
    for (int layer : region_order[r]) {
      int pos = region_first_main[r];
      if (const auto it = dgrad_pos.find(layer + 1); it != dgrad_pos.end()) {
        pos = std::max(pos, it->second);
      }
      attach_after[pos].push_back({layer, r});
    }
  }
  IterationSchedule sched;
  std::vector<int> final_main_index(main_ops.size(), -1);
  for (size_t m = 0; m < main_ops.size(); ++m) {
    final_main_index[m] = static_cast<int>(sched.ops.size());
    sched.ops.push_back({main_ops[m], kMainStream, -1});
    for (const auto& [layer, region] : attach_after[m]) {
      sched.ops.push_back({{TrainOpType::kWeightGrad, layer},
                           kSubStream,
                           final_main_index[region_first_main[region]]});
      sched.ops.push_back({{TrainOpType::kWeightUpdate, layer}, kSubStream, -1});
    }
  }
  return sched;
}

// Every memory-fallback pass of the reference for one profiled model, each
// computed once, on demand: pass k pre-schedules the first k backward
// regions. A cap only decides at which pass the planner stops.
class ReferencePlanner {
 public:
  ReferencePlanner(const TrainGraph& graph, const CorunProfiler& profiler)
      : graph_(graph), profiler_(profiler) {
    for (const Region& r : profiler.regions()) {
      bwd_regions_ += r.kind == Region::Kind::kBackward ? 1 : 0;
    }
  }

  JointScheduleResult Plan(int64_t cap) {
    for (int k = 0;; ++k) {
      const JointScheduleResult& pass = Pass(k);
      if (cap < 0 || pass.peak_memory <= cap || k == bwd_regions_) {
        return pass;
      }
    }
  }

  int bwd_regions() const { return bwd_regions_; }

 private:
  const JointScheduleResult& Pass(int k) {
    while (static_cast<int>(passes_.size()) <= k) {
      const int pre_k = static_cast<int>(passes_.size());
      const std::vector<std::vector<int>> order =
          RunAlgorithm1(graph_, profiler_, pre_k);
      JointScheduleResult r;
      r.schedule = BuildSchedule(profiler_, order);
      r.pre_scheduled_regions = pre_k;
      r.peak_memory =
          EstimateBackpropMemory(graph_.model(), r.schedule.MergedOrder())
              .peak;
      for (int region = 0; region < profiler_.num_regions(); ++region) {
        for (int layer : order[region]) {
          r.assigned_ops.push_back({TrainOpType::kWeightGrad, layer});
          r.assigned_region.push_back(region);
        }
      }
      passes_.push_back(std::move(r));
    }
    return passes_[k];
  }

  const TrainGraph& graph_;
  const CorunProfiler& profiler_;
  int bwd_regions_ = 0;
  std::vector<JointScheduleResult> passes_;
};

}  // namespace reference

// First difference between two planner results, or "" when they are equal
// in every field.
std::string FirstDifference(const JointScheduleResult& got,
                            const JointScheduleResult& want) {
  if (got.pre_scheduled_regions != want.pre_scheduled_regions) {
    return "pre_scheduled_regions " + std::to_string(got.pre_scheduled_regions) +
           " vs " + std::to_string(want.pre_scheduled_regions);
  }
  if (got.peak_memory != want.peak_memory) {
    return "peak_memory";
  }
  if (got.assigned_ops != want.assigned_ops ||
      got.assigned_region != want.assigned_region) {
    return "assignment";
  }
  if (got.schedule.ops.size() != want.schedule.ops.size()) {
    return "schedule length";
  }
  for (size_t i = 0; i < got.schedule.ops.size(); ++i) {
    const ScheduledOp& a = got.schedule.ops[i];
    const ScheduledOp& b = want.schedule.ops[i];
    if (!(a.op == b.op) || a.stream != b.stream ||
        a.wait_for_index != b.wait_for_index) {
      return "schedule op " + std::to_string(i);
    }
  }
  return "";
}

struct Fixture {
  NnModel model;
  CostModel cost;
  TrainGraph graph;
  CorunProfiler profiler;

  explicit Fixture(NnModel m)
      : model(std::move(m)),
        cost(GpuSpec::V100(), SystemProfile::TensorFlowXla()),
        graph(&model),
        profiler(graph, cost, BuildRegions(graph)) {}
};

// Gradient ops extracted from a schedule, in issue order.
std::vector<TrainOp> GradOps(const IterationSchedule& sched) {
  std::vector<TrainOp> grads;
  for (const ScheduledOp& s : sched.ops) {
    if (s.op.type == TrainOpType::kOutputGrad ||
        s.op.type == TrainOpType::kWeightGrad) {
      grads.push_back(s.op);
    }
  }
  return grads;
}

TEST(JointSchedulerTest, ScheduleContainsEveryOpExactlyOnce) {
  Fixture s(DenseNet(121, 32, 32));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  std::map<std::pair<int, int>, int> counts;  // (type, layer) -> count
  for (const ScheduledOp& op : r.schedule.ops) {
    ++counts[{static_cast<int>(op.op.type), op.op.layer}];
  }
  for (int l = 0; l < s.model.num_layers(); ++l) {
    EXPECT_EQ((counts[{static_cast<int>(TrainOpType::kForward), l}]), 1);
    EXPECT_EQ((counts[{static_cast<int>(TrainOpType::kOutputGrad), l}]), 1);
    const int expect_w = s.graph.HasWgrad(l) ? 1 : 0;
    EXPECT_EQ((counts[{static_cast<int>(TrainOpType::kWeightGrad), l}]),
              expect_w);
    EXPECT_EQ((counts[{static_cast<int>(TrainOpType::kWeightUpdate), l}]),
              expect_w);
  }
}

TEST(JointSchedulerTest, GradientOrderValidates) {
  for (NnModel m : {DenseNet(121, 32, 32), ResNet(50, 32),
                    MobileNetV3Large(1.0, 32)}) {
    Fixture s(std::move(m));
    const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
    EXPECT_TRUE(s.graph.ValidateBackpropOrder(GradOps(r.schedule)))
        << s.model.name;
  }
}

TEST(JointSchedulerTest, WeightOpsGoToSubStream) {
  Fixture s(DenseNet(121, 32, 32));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  for (const ScheduledOp& op : r.schedule.ops) {
    if (op.op.type == TrainOpType::kWeightGrad ||
        op.op.type == TrainOpType::kWeightUpdate) {
      EXPECT_EQ(op.stream, kSubStream);
    } else {
      EXPECT_EQ(op.stream, kMainStream);
    }
  }
}

TEST(JointSchedulerTest, WaitIndicesPointBackwardsToMainOps) {
  Fixture s(DenseNet(121, 32, 32));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  for (size_t i = 0; i < r.schedule.ops.size(); ++i) {
    const ScheduledOp& op = r.schedule.ops[i];
    if (op.wait_for_index < 0) {
      continue;
    }
    ASSERT_LT(op.wait_for_index, static_cast<int>(i));
    EXPECT_EQ(r.schedule.ops[op.wait_for_index].stream, kMainStream);
  }
}

TEST(JointSchedulerTest, AssignmentsRespectDeadlines) {
  Fixture s(DenseNet(121, 32, 32));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  ASSERT_EQ(r.assigned_ops.size(), r.assigned_region.size());
  for (size_t i = 0; i < r.assigned_ops.size(); ++i) {
    const TrainOp& op = r.assigned_ops[i];
    EXPECT_LT(r.assigned_region[i], s.profiler.DeadlineRegion(op))
        << "dW[" << op.layer << "]";
    EXPECT_GE(r.assigned_region[i], s.profiler.ReadyPoint(op).first);
  }
}

TEST(JointSchedulerTest, MemoryCapTriggersPreScheduling) {
  Fixture s(DenseNet(121, 32, 32, /*image=*/224));
  const JointScheduleResult loose = MultiRegionJointSchedule(s.graph, s.profiler);

  JointScheduleOptions tight;
  // A cap below the unconstrained peak forces eager pre-scheduling.
  tight.memory_cap_bytes = loose.peak_memory - 1;
  const JointScheduleResult constrained =
      MultiRegionJointSchedule(s.graph, s.profiler, tight);
  EXPECT_GT(constrained.pre_scheduled_regions, loose.pre_scheduled_regions);
  EXPECT_TRUE(s.graph.ValidateBackpropOrder(GradOps(constrained.schedule)));
}

TEST(JointSchedulerTest, UnconstrainedRunsSinglePass) {
  Fixture s(ResNet(50, 32));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  EXPECT_EQ(r.pre_scheduled_regions, 0);
  EXPECT_GT(r.peak_memory, 0);
}

TEST(JointSchedulerTest, AllWgradsAssigned) {
  Fixture s(Bert(12, 8));
  const JointScheduleResult r = MultiRegionJointSchedule(s.graph, s.profiler);
  int expected = 0;
  for (int l = 0; l < s.model.num_layers(); ++l) {
    expected += s.graph.HasWgrad(l) ? 1 : 0;
  }
  EXPECT_EQ(static_cast<int>(r.assigned_ops.size()), expected);
}

// The planner against the reference greedy over models, GPUs, system
// profiles and memory caps: the whole result must be identical. The caps
// are 1.0x, 1.1x (the paper's) and 1.5x the conventional peak, no cap, and
// a cap no pass meets, whose result is the pass with every backward region
// pre-scheduled.
TEST(JointSchedulerTest, MatchesReferenceGreedyOverTheGrid) {
  std::vector<NnModel> models;
  for (int batch : {32, 48, 64}) {  // hostbench `train`'s single-GPU models
    models.push_back(DenseNet(121, 24, batch, 32));
    models.push_back(DenseNet(169, 32, batch, 32));
    models.push_back(MobileNetV3Large(0.75, batch, 224));
    models.push_back(ResNet(50, batch, 224));
    models.push_back(ResNet(101, batch, 224));
  }
  models.push_back(DenseNet(121, 12, 32));
  models.push_back(DenseNet(121, 32, 32));
  models.push_back(MobileNetV3Large(1.0, 32));
  models.push_back(ResNet(152, 32));
  models.push_back(Bert(12, 8));
  models.push_back(RnnModel(8, 32));
  models.push_back(Ffnn(8, 64));

  int plans = 0;
  int capped = 0;  // plans that pre-scheduled at least one region
  for (const NnModel& model : models) {
    const TrainGraph graph(&model);
    const int64_t conv_peak =
        EstimateBackpropMemory(model, ConventionalIteration(graph).MergedOrder())
            .peak;
    for (const GpuSpec& gpu :
         {GpuSpec::V100(), GpuSpec::P100(), GpuSpec::TitanXp()}) {
      for (const SystemProfile& profile :
           {SystemProfile::TensorFlowXla(), SystemProfile::TensorFlow(),
            SystemProfile::PyTorchNimble()}) {
        const CostModel cost(gpu, profile);
        const CorunProfiler profiler(graph, cost, BuildRegions(graph));
        reference::ReferencePlanner ref(graph, profiler);
        for (const int64_t cap :
             {static_cast<int64_t>(1.0 * conv_peak),
              static_cast<int64_t>(1.1 * conv_peak),
              static_cast<int64_t>(1.5 * conv_peak), int64_t{-1},
              int64_t{0}}) {
          JointScheduleOptions options;
          options.memory_cap_bytes = cap;
          const JointScheduleResult got =
              MultiRegionJointSchedule(graph, profiler, options);
          ASSERT_EQ(FirstDifference(got, ref.Plan(cap)), "")
              << model.name << " on " << gpu.name << "/" << profile.name
              << ", cap " << cap;
          if (cap == 0) {
            EXPECT_EQ(got.pre_scheduled_regions, ref.bwd_regions());
          }
          ++plans;
          capped += got.pre_scheduled_regions > 0 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(plans, 22 * 3 * 3 * 5);
  // The fallback matters in much of the grid, not only at the unmet cap.
  EXPECT_GT(capped, plans / 2);
}

}  // namespace
}  // namespace oobp

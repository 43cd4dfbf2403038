#include "src/core/corun_profiler.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/hw/gpu.h"

namespace oobp {

CorunProfiler::CorunProfiler(const TrainGraph& graph, const CostModel& cost,
                             std::vector<Region> regions)
    : graph_(&graph), cost_(&cost), regions_(std::move(regions)) {
  const double capacity = static_cast<double>(cost_->gpu().slot_capacity());
  const TimeNs setup = cost_->gpu().kernel_exec_overhead;
  const int L = graph_->num_layers();

  // The cost model is pure in (layer, op type); evaluate each pair the
  // profiler reads once.
  cost_cache_.resize(static_cast<size_t>(L) * kCachedOpTypes);
  for (int i = 0; i < L; ++i) {
    for (int t = 0; t < kCachedOpTypes; ++t) {
      cost_cache_[static_cast<size_t>(i) * kCachedOpTypes + t] =
          cost_->Cost(graph_->model().layers[i], static_cast<TrainOpType>(t));
    }
  }

  profiles_.resize(regions_.size());
  seg_end_.resize(regions_.size());
  main_duration_.assign(regions_.size(), 0);
  dgrad_end_.assign(L, {-1, 0});
  fwd_region_.assign(L, -1);
  for (size_t r = 0; r < regions_.size(); ++r) {
    TimeNs offset = 0;
    for (const TrainOp& op : regions_[r].main_ops) {
      const KernelCost& kc = CachedCost(op);
      // The per-kernel SM setup gap leaves the whole device to the sub
      // stream — in saturated regions this is the only co-run capacity,
      // which is exactly the paper's R2 observation (the gain there equals
      // the summed kernel execution overhead, ~6%).
      if (setup > 0) {
        profiles_[r].push_back({setup, capacity});
      }
      Segment seg;
      seg.duration = kc.duration;
      seg.leftover = capacity - EffectiveOccupancy(kc.thread_blocks, capacity);
      profiles_[r].push_back(seg);
      offset += seg.duration + setup;
      if (op.type == TrainOpType::kOutputGrad) {
        dgrad_end_[op.layer] = {static_cast<int>(r), offset};
      } else if (op.type == TrainOpType::kForward) {
        if (fwd_region_[op.layer] < 0) {
          fwd_region_[op.layer] = static_cast<int>(r);
        }
      }
    }
    main_duration_[r] = offset;
    seg_end_[r].reserve(profiles_[r].size());
    TimeNs end = 0;
    for (const Segment& seg : profiles_[r]) {
      end += seg.duration;
      seg_end_[r].push_back(end);
    }
  }
}

const KernelCost& CorunProfiler::CachedCost(const TrainOp& op) const {
  OOBP_CHECK_LT(static_cast<int>(op.type), kCachedOpTypes);
  return cost_cache_[static_cast<size_t>(op.layer) * kCachedOpTypes +
                     static_cast<int>(op.type)];
}

TimeNs CorunProfiler::MainDuration(int r) const {
  OOBP_CHECK_GE(r, 0);
  OOBP_CHECK_LT(r, num_regions());
  return main_duration_[r];
}

TimeNs CorunProfiler::SoloTime(const TrainOp& op) const {
  return CachedCost(op).duration;
}

TimeNs CorunProfiler::SubTimeAt(int r, const TrainOp& op, TimeNs offset) const {
  OOBP_CHECK_GE(r, 0);
  OOBP_CHECK_LT(r, num_regions());
  OOBP_CHECK_GE(offset, 0);
  const double capacity = static_cast<double>(cost_->gpu().slot_capacity());
  const KernelCost& kc = CachedCost(op);
  const double solo_rate = EffectiveOccupancy(kc.thread_blocks, capacity);
  double work = static_cast<double>(kc.duration) * solo_rate;

  // Skip straight to the first segment whose end lies past `offset`; the
  // per-region prefix sums make this a binary search rather than a scan of
  // every earlier segment on every query.
  const std::vector<TimeNs>& ends = seg_end_[r];
  const size_t first =
      std::upper_bound(ends.begin(), ends.end(), offset) - ends.begin();

  TimeNs t = 0;  // time elapsed since the kernel started (at `offset`)
  TimeNs seg_start = first == 0 ? 0 : ends[first - 1];
  for (size_t k = first; k < profiles_[r].size(); ++k) {
    const Segment& seg = profiles_[r][k];
    const TimeNs seg_end = seg_start + seg.duration;
    const TimeNs begin = std::max(seg_start, offset);
    const TimeNs avail = seg_end - begin;
    // Same allocation rule as the fluid GPU model: the kernel's wave-average
    // occupancy, clipped to the segment's leftover slots.
    const double rate = std::min(solo_rate, seg.leftover);
    if (rate > 0.0) {
      const double drained = rate * static_cast<double>(avail);
      if (drained >= work) {
        return t + static_cast<TimeNs>(std::ceil(work / rate));
      }
      work -= drained;
    }
    t += avail;
    seg_start = seg_end;
  }
  // Past the region end the kernel has the device to itself.
  return t + static_cast<TimeNs>(std::ceil(work / solo_rate));
}

double CorunProfiler::SpeedupAt(int r, const TrainOp& op, TimeNs offset) const {
  const TimeNs main_left = std::max<TimeNs>(0, MainDuration(r) - offset);
  const TimeNs solo = SoloTime(op);
  const TimeNs joint = std::max(main_left, SubTimeAt(r, op, offset));
  if (joint <= 0) {
    return 1.0;
  }
  return CorunSpeedup(main_left, solo, joint);
}

std::pair<int, TimeNs> CorunProfiler::ReadyPoint(const TrainOp& op) const {
  OOBP_CHECK(op.type == TrainOpType::kWeightGrad);
  const int producer = op.layer + 1;
  if (producer >= graph_->num_layers()) {
    return {0, 0};  // the loss gradient is available at backprop start
  }
  const std::pair<int, TimeNs>& end = dgrad_end_[producer];
  OOBP_CHECK_GE(end.first, 0)
      << "dO[" << producer << "] not present in any region";
  return end;
}

int CorunProfiler::DeadlineRegion(const TrainOp& op) const {
  OOBP_CHECK(op.type == TrainOpType::kWeightGrad);
  const int r = fwd_region_[op.layer];
  return r < 0 ? num_regions() : r;
}

}  // namespace oobp

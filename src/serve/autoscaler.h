// Queue-depth-driven fleet autoscaler.
//
// Owns the replica-state machine of the fleet: each replica in
// [0, max_replicas) is down, warming, or up, and only up replicas are
// routable. Every `evaluate_every` the autoscaler samples the fleet's total
// queued-request count (a callback supplied by the fleet engine), divides by
// the routable count, and compares against thresholds:
//
//   queued / routable > scale_up_depth   -> bring one down replica up
//   queued / routable < scale_down_depth -> take the highest routable down
//
// One step per evaluation, separated by `cooldown`, keeps the control loop
// deterministic and free of oscillation. A scale-up pays `warmup` (model
// load + CUDA graph capture on the new GPU) before the replica becomes
// routable — the router cannot dispatch to it earlier. A scale-down removes
// the replica from the routable set immediately; batches already queued on
// it keep draining (connection draining), and in the co-run fleet the GPU
// simply returns to full-rate ooo training. The routable count never drops
// below `min_replicas`.
//
// Like the router and the batcher, this is pure control logic without a
// clock. The replica driver (src/serve/replica_driver.cc) evaluates
// ScalePolicy on each tick and ends each warm-up, and keeps the tick and
// warm-up times as backend timers, so the rules are driven once and
// unit-test against scripted and fuzzed depth sequences without a GPU.

#ifndef OOBP_SRC_SERVE_AUTOSCALER_H_
#define OOBP_SRC_SERVE_AUTOSCALER_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace oobp {

struct AutoscalerConfig {
  int min_replicas = 1;  // routable floor; scale-down never goes below
  int max_replicas = 1;  // fleet size ceiling
  // 0 = start at min_replicas; otherwise clamped into [min, max]. Initial
  // replicas are warm at t = 0 (the fleet exists before the horizon opens).
  int initial_replicas = 0;
  double scale_up_depth = 16.0;   // queued per routable replica, exclusive
  double scale_down_depth = 2.0;  // queued per routable replica, exclusive
  TimeNs evaluate_every = Ms(5);
  TimeNs cooldown = Ms(25);  // between consecutive scaling actions
  TimeNs warmup = Ms(10);    // spin-up cost before a new replica is routable
};

// The autoscaler's replica-state machine. Every call takes the current
// time; the caller runs the ticks and warm-up timers it asks for.
class ScalePolicy {
 public:
  // `queued` returns the total queued-request count across routable
  // replicas at the current simulation time.
  using QueuedFn = std::function<int64_t()>;

  // The initial fleet is up at `now`.
  ScalePolicy(const AutoscalerConfig& config, TimeNs now);

  // What one control step did to the warm-up timers.
  struct Step {
    // Replica that started warming; its timer must call BecomeUp
    // `config.warmup` later. -1 when none (with a zero warm-up the replica
    // is already up).
    int warm = -1;
    // Warming replica the step took down; its timer must be cancelled.
    int cancel = -1;
  };

  // One control step at `now`; `queued` is sampled only outside the
  // cooldown.
  Step Evaluate(TimeNs now, const QueuedFn& queued);

  // `replica`'s warm-up ended at `now`.
  void BecomeUp(int replica, TimeNs now);

  // The first tick of periodic evaluation started at `now`, or the tick
  // after one at `now`: -1 once it would land past `until`.
  TimeNs NextTick(TimeNs now, TimeNs until) const {
    const TimeNs next = now + config_.evaluate_every;
    return next > until ? -1 : next;
  }

  bool routable(int replica) const;
  // Ascending indices of up replicas; never empty (min_replicas >= 1).
  const std::vector<int>& routable_set() const { return routable_; }
  int num_routable() const { return static_cast<int>(routable_.size()); }
  // Up + warming: replicas whose warm-up cost has been committed.
  int target() const { return target_; }
  int scale_ups() const { return scale_ups_; }
  int scale_downs() const { return scale_downs_; }
  // (time, routable count) on every change; starts with the entry for the
  // initial fleet. Times are non-decreasing.
  const std::vector<std::pair<TimeNs, int>>& timeline() const {
    return timeline_;
  }

 private:
  enum class State { kDown, kWarming, kUp };

  void RebuildRoutable();

  AutoscalerConfig config_;
  std::vector<State> state_;
  std::vector<int> routable_;
  int target_ = 0;
  TimeNs last_action_ = 0;
  bool any_action_ = false;  // cooldown only binds after the first action
  int scale_ups_ = 0;
  int scale_downs_ = 0;
  std::vector<std::pair<TimeNs, int>> timeline_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_AUTOSCALER_H_

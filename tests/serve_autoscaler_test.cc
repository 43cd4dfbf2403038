// ScalePolicy (src/serve/autoscaler.h): threshold crossing, warm-up delay,
// cooldown spacing, warming cancellation, the tick schedule, and the seeded
// property that the routable floor and the prefix shape of the up-set hold
// under arbitrary depth sequences (ctest labels: unit, serve, fleet). The
// policy has no clock: Fleet plays the replica driver's part at scripted
// times.

#include "src/serve/autoscaler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace oobp {
namespace {

AutoscalerConfig BaseConfig() {
  AutoscalerConfig cfg;
  cfg.min_replicas = 1;
  cfg.max_replicas = 4;
  cfg.scale_up_depth = 8.0;
  cfg.scale_down_depth = 1.0;
  cfg.evaluate_every = Ms(1);
  cfg.cooldown = Ms(3);
  cfg.warmup = Ms(2);
  return cfg;
}

// A policy with the warm-up timers its steps ask for: a warm-up started at
// `now` ends `warmup` later, before any step at or after that time (a
// warm-up is drawn before the next tick), and a step that takes a warming
// replica down cancels its warm-up.
class Fleet {
 public:
  explicit Fleet(const AutoscalerConfig& config)
      : policy(config, /*now=*/0), warmup_(config.warmup) {}

  // One control step at `now` sampling `queued`.
  ScalePolicy::Step Evaluate(TimeNs now, int64_t queued) {
    EndWarmupsThrough(now);
    const ScalePolicy::Step step =
        policy.Evaluate(now, [queued] { return queued; });
    if (step.cancel >= 0) {
      std::erase_if(warming_, [&step](const std::pair<TimeNs, int>& w) {
        return w.second == step.cancel;
      });
    }
    if (step.warm >= 0) {
      warming_.push_back({now + warmup_, step.warm});
    }
    return step;
  }

  // Every tick NextTick asks for up to `until`, each sampling `queued`;
  // returns the tick count.
  int Tick(TimeNs until, int64_t queued) {
    int ticks = 0;
    for (TimeNs t = policy.NextTick(0, until); t >= 0;
         t = policy.NextTick(t, until)) {
      Evaluate(t, queued);
      ++ticks;
    }
    return ticks;
  }

  // Ends every warm-up due by `t`, earliest first.
  void EndWarmupsThrough(TimeNs t) {
    while (!warming_.empty() && warming_.front().first <= t) {
      const auto [at, replica] = warming_.front();
      warming_.erase(warming_.begin());
      policy.BecomeUp(replica, at);
    }
  }

  ScalePolicy policy;

 private:
  TimeNs warmup_;
  std::vector<std::pair<TimeNs, int>> warming_;  // (end, replica)
};

TEST(AutoscalerTest, ScaleUpCrossesThresholdAndWarmupDelaysRoutability) {
  Fleet fleet(BaseConfig());
  const ScalePolicy& scaler = fleet.policy;
  EXPECT_EQ(scaler.num_routable(), 1);
  EXPECT_EQ(scaler.target(), 1);

  const ScalePolicy::Step step = fleet.Evaluate(Ms(1), 100);  // far past 8
  EXPECT_EQ(step.warm, 1);
  EXPECT_EQ(step.cancel, -1);
  // The warm-up cost is committed, but the replica cannot be routed yet.
  EXPECT_EQ(scaler.target(), 2);
  EXPECT_EQ(scaler.num_routable(), 1);
  EXPECT_FALSE(scaler.routable(1));
  fleet.EndWarmupsThrough(Ms(3) - 1);
  EXPECT_FALSE(scaler.routable(1));
  fleet.EndWarmupsThrough(Ms(3));
  EXPECT_TRUE(scaler.routable(1));
  EXPECT_EQ(scaler.num_routable(), 2);

  EXPECT_EQ(scaler.scale_ups(), 1);
  EXPECT_EQ(scaler.scale_downs(), 0);
  // Timeline: initial fleet at t = 0, then the warmed-up replica at 3 ms.
  ASSERT_EQ(scaler.timeline().size(), 2u);
  EXPECT_EQ(scaler.timeline()[0], (std::pair<TimeNs, int>{0, 1}));
  EXPECT_EQ(scaler.timeline()[1], (std::pair<TimeNs, int>{Ms(3), 2}));
}

TEST(AutoscalerTest, BelowThresholdNoAction) {
  Fleet fleet(BaseConfig());
  // Between the down (1) and up (8) thresholds.
  EXPECT_EQ(fleet.Tick(Ms(10), 4), 10);
  EXPECT_EQ(fleet.policy.scale_ups(), 0);
  EXPECT_EQ(fleet.policy.scale_downs(), 0);
  EXPECT_EQ(fleet.policy.timeline().size(), 1u);
}

TEST(AutoscalerTest, CooldownSpacesConsecutiveActions) {
  Fleet fleet(BaseConfig());  // cooldown 3 ms, warmup 2 ms
  fleet.Tick(Ms(20), 1000);
  fleet.EndWarmupsThrough(Ms(20) + Ms(2));
  const ScalePolicy& scaler = fleet.policy;

  // Ticks run every 1 ms, but actions are only admitted at 1, 4, 7 ms —
  // the fleet tops out at max_replicas with exactly 3 scale-ups.
  EXPECT_EQ(scaler.scale_ups(), 3);
  EXPECT_EQ(scaler.num_routable(), 4);
  ASSERT_EQ(scaler.timeline().size(), 4u);
  EXPECT_EQ(scaler.timeline()[1].first, Ms(3));  // action 1 ms + warmup
  EXPECT_EQ(scaler.timeline()[2].first, Ms(6));
  EXPECT_EQ(scaler.timeline()[3].first, Ms(9));
}

TEST(AutoscalerTest, ZeroWarmupIsRoutableAtTheEvaluationInstant) {
  AutoscalerConfig cfg = BaseConfig();
  cfg.warmup = 0;
  Fleet fleet(cfg);
  const ScalePolicy::Step step = fleet.Evaluate(Ms(1), 100);
  EXPECT_EQ(step.warm, -1);  // no timer: the replica is already up
  EXPECT_TRUE(fleet.policy.routable(1));
  EXPECT_EQ(fleet.policy.num_routable(), 2);
}

TEST(AutoscalerTest, ScaleDownCancelsWarmingReplicaFirst) {
  AutoscalerConfig cfg = BaseConfig();
  cfg.cooldown = 0;
  Fleet fleet(cfg);
  EXPECT_EQ(fleet.Evaluate(Ms(1), 100).warm, 1);  // replica 1 warming
  // Cancels the warm-up; replica 1 never comes up.
  EXPECT_EQ(fleet.Evaluate(Ms(2), 0).cancel, 1);
  EXPECT_EQ(fleet.policy.target(), 1);
  fleet.EndWarmupsThrough(Ms(10));
  const ScalePolicy& scaler = fleet.policy;

  EXPECT_EQ(scaler.scale_ups(), 1);
  EXPECT_EQ(scaler.scale_downs(), 1);
  EXPECT_EQ(scaler.num_routable(), 1);
  EXPECT_FALSE(scaler.routable(1));
  // The cancelled warm-up never changed the routable count: no timeline
  // entries beyond the initial fleet.
  EXPECT_EQ(scaler.timeline().size(), 1u);
}

TEST(AutoscalerTest, TicksRunEveryPeriodUpToTheHorizon) {
  const ScalePolicy policy(BaseConfig(), /*now=*/0);  // every 1 ms
  EXPECT_EQ(policy.NextTick(0, Ms(5)), Ms(1));
  EXPECT_EQ(policy.NextTick(Ms(4), Ms(5)), Ms(5));  // a tick at the horizon
  EXPECT_EQ(policy.NextTick(Ms(5), Ms(5)), -1);     // none past it
  EXPECT_EQ(policy.NextTick(0, Ms(1) - 1), -1);     // none at all
}

TEST(AutoscalerTest, FloorAndPrefixShapeHoldUnderFuzzedDepths) {
  Rng rng(0xA5CA1E);
  for (int trial = 0; trial < 25; ++trial) {
    AutoscalerConfig cfg;
    cfg.min_replicas = 1 + static_cast<int>(rng.NextBelow(3));
    cfg.max_replicas =
        cfg.min_replicas + static_cast<int>(rng.NextBelow(6));
    cfg.scale_up_depth = rng.Uniform(2.0, 10.0);
    cfg.scale_down_depth = rng.Uniform(0.1, 1.9);
    cfg.evaluate_every = Us(rng.Uniform(500.0, 2000.0));
    cfg.cooldown = Us(rng.Uniform(0.0, 3000.0));
    cfg.warmup = Us(rng.Uniform(0.0, 3000.0));
    Fleet fleet(cfg);
    const ScalePolicy& scaler = fleet.policy;

    for (int step = 0; step < 60; ++step) {
      const TimeNs at = Us(500) * (step + 1);
      const auto depth = static_cast<int64_t>(rng.NextBelow(40));
      fleet.Evaluate(at, depth);
      // Floor and ceiling on the routable count, at every instant.
      ASSERT_GE(scaler.num_routable(), cfg.min_replicas);
      ASSERT_LE(scaler.num_routable(), cfg.max_replicas);
      ASSERT_GE(scaler.target(), cfg.min_replicas);
      ASSERT_LE(scaler.target(), cfg.max_replicas);
      // Up replicas always form the index prefix {0..k-1}: scale-ups take
      // the lowest down index and scale-downs the highest non-down.
      const std::vector<int>& routable = scaler.routable_set();
      for (size_t i = 0; i < routable.size(); ++i) {
        ASSERT_EQ(routable[i], static_cast<int>(i));
      }
    }
    fleet.EndWarmupsThrough(Us(500) * 61 + cfg.warmup);
    // Actions balance: routable count = initial + net actions completed.
    EXPECT_GE(scaler.scale_ups(), scaler.scale_downs() -
                                      (scaler.target() - cfg.min_replicas));
    // Timeline times are non-decreasing.
    const auto& tl = scaler.timeline();
    for (size_t i = 1; i < tl.size(); ++i) {
      EXPECT_GE(tl[i].first, tl[i - 1].first);
    }
  }
}

}  // namespace
}  // namespace oobp

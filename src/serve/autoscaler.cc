#include "src/serve/autoscaler.h"

#include <algorithm>

#include "src/common/check.h"

namespace oobp {

ScalePolicy::ScalePolicy(const AutoscalerConfig& config, TimeNs now)
    : config_(config) {
  OOBP_CHECK_GE(config_.min_replicas, 1);
  OOBP_CHECK_GE(config_.max_replicas, config_.min_replicas);
  OOBP_CHECK_GT(config_.scale_up_depth, config_.scale_down_depth);
  OOBP_CHECK_GT(config_.evaluate_every, 0);
  OOBP_CHECK_GE(config_.cooldown, 0);
  OOBP_CHECK_GE(config_.warmup, 0);

  int initial = config_.initial_replicas;
  if (initial == 0) {
    initial = config_.min_replicas;
  }
  initial = std::clamp(initial, config_.min_replicas, config_.max_replicas);

  state_.assign(static_cast<size_t>(config_.max_replicas), State::kDown);
  for (int r = 0; r < initial; ++r) {
    state_[static_cast<size_t>(r)] = State::kUp;
  }
  target_ = initial;
  RebuildRoutable();
  timeline_.push_back({now, num_routable()});
}

ScalePolicy::Step ScalePolicy::Evaluate(TimeNs now, const QueuedFn& queued) {
  Step step;
  if (any_action_ && now - last_action_ < config_.cooldown) {
    return step;
  }
  const int64_t depth = queued();
  const double per = static_cast<double>(depth) /
                     static_cast<double>(std::max(1, num_routable()));

  if (per > config_.scale_up_depth && target_ < config_.max_replicas) {
    // Lowest down replica spins up; routable only after the warm-up cost.
    int replica = -1;
    for (int r = 0; r < config_.max_replicas; ++r) {
      if (state_[static_cast<size_t>(r)] == State::kDown) {
        replica = r;
        break;
      }
    }
    OOBP_CHECK_GE(replica, 0);
    state_[static_cast<size_t>(replica)] = State::kWarming;
    ++target_;
    ++scale_ups_;
    any_action_ = true;
    last_action_ = now;
    if (config_.warmup == 0) {
      BecomeUp(replica, now);
    } else {
      step.warm = replica;
    }
    return step;
  }

  if (per < config_.scale_down_depth && target_ > config_.min_replicas) {
    // Highest non-down replica goes; a still-warming one is simply
    // cancelled (its warm-up never completes), an up one stops receiving
    // new requests and drains.
    for (int r = config_.max_replicas - 1; r >= 0; --r) {
      State& s = state_[static_cast<size_t>(r)];
      if (s == State::kDown) {
        continue;
      }
      if (s == State::kWarming) {
        step.cancel = r;
      }
      s = State::kDown;
      --target_;
      ++scale_downs_;
      any_action_ = true;
      last_action_ = now;
      const int before = num_routable();
      RebuildRoutable();
      if (num_routable() != before) {
        timeline_.push_back({now, num_routable()});
      }
      return step;
    }
  }
  return step;
}

void ScalePolicy::BecomeUp(int replica, TimeNs now) {
  OOBP_CHECK(state_[static_cast<size_t>(replica)] == State::kWarming);
  state_[static_cast<size_t>(replica)] = State::kUp;
  RebuildRoutable();
  timeline_.push_back({now, num_routable()});
}

bool ScalePolicy::routable(int replica) const {
  OOBP_CHECK_GE(replica, 0);
  OOBP_CHECK_LT(replica, config_.max_replicas);
  return state_[static_cast<size_t>(replica)] == State::kUp;
}

void ScalePolicy::RebuildRoutable() {
  routable_.clear();
  for (int r = 0; r < config_.max_replicas; ++r) {
    if (state_[static_cast<size_t>(r)] == State::kUp) {
      routable_.push_back(r);
    }
  }
}

}  // namespace oobp

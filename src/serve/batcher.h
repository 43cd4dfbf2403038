// Dynamic request batching rule for the inference-serving subsystem.
//
// Classic serving tradeoff: larger batches amortize per-kernel overheads and
// raise goodput, but waiting to fill them adds queueing delay. The batcher
// dispatches a batch when either the pending queue reaches `max_batch` or
// the oldest pending request has waited `max_queue_delay` — whichever comes
// first — and keeps at most `max_inflight` batches on the accelerator, which
// is what creates queue pressure (and thus batching) under load.
//
// BatchQueue is the rule without a clock. The replica driver
// (src/serve/replica_driver.cc) keeps one per replica, calls it when a
// request arrives, a batch finishes or the deadline fires, and keeps the
// deadline it returns as a backend timer, so the rule is driven once.

#ifndef OOBP_SRC_SERVE_BATCHER_H_
#define OOBP_SRC_SERVE_BATCHER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/time.h"

namespace oobp {

struct BatcherConfig {
  int max_batch = 8;                 // dispatch at this many pending requests
  TimeNs max_queue_delay = Ms(2.0);  // or when the oldest waited this long
  int max_inflight = 1;              // batches concurrently on the device
};

// The batcher's queue and dispatch rule. Every call takes the current time;
// the caller runs Release again at the deadline Release returns.
class BatchQueue {
 public:
  explicit BatchQueue(const BatcherConfig& config);

  // A request arrived at `now` (ids distinct; arrival order == call order).
  void Push(int64_t request_id, TimeNs now) {
    queue_.push_back({request_id, now});
  }

  // A dispatched batch finished; frees its inflight slot.
  void Done();

  // Releases every batch the rule allows at `now` — a full one, or the
  // oldest request's deadline expired — while an inflight slot is free,
  // calling `dispatch(ids)` with each batch's ids in arrival order. Returns
  // when the deadline timer must fire next, or -1 when none is needed
  // (nothing waits, or every inflight slot is taken and Done re-evaluates).
  template <typename Dispatch>
  TimeNs Release(TimeNs now, Dispatch&& dispatch) {
    while (inflight_ < config_.max_inflight && !queue_.empty()) {
      const bool full = static_cast<int>(queue_.size()) >= config_.max_batch;
      const bool expired =
          now - queue_.front().arrival >= config_.max_queue_delay;
      if (!full && !expired) {
        break;
      }
      const int n =
          std::min<int>(config_.max_batch, static_cast<int>(queue_.size()));
      batch_.clear();
      for (int i = 0; i < n; ++i) {
        batch_.push_back(queue_.front().id);
        queue_.pop_front();
      }
      ++inflight_;
      dispatch(static_cast<const std::vector<int64_t>&>(batch_));
    }
    if (queue_.empty() || inflight_ >= config_.max_inflight) {
      return -1;
    }
    return std::max(now, queue_.front().arrival + config_.max_queue_delay);
  }

  int queue_depth() const { return static_cast<int>(queue_.size()); }
  int inflight() const { return inflight_; }

 private:
  struct Pending {
    int64_t id;
    TimeNs arrival;
  };

  BatcherConfig config_;
  std::deque<Pending> queue_;
  int inflight_ = 0;
  std::vector<int64_t> batch_;  // the batch being dispatched
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_BATCHER_H_

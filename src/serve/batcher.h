// Dynamic request batcher for the inference-serving subsystem.
//
// Classic serving tradeoff: larger batches amortize per-kernel overheads and
// raise goodput, but waiting to fill them adds queueing delay. The batcher
// dispatches a batch when either the pending queue reaches `max_batch` or
// the oldest pending request has waited `max_queue_delay` — whichever comes
// first — and keeps at most `max_inflight` batches on the accelerator, which
// is what creates queue pressure (and thus batching) under load.
//
// The decisions live in BatchQueue, which has no clock: DynamicBatcher
// drives it from SimEngine events and one cancellable deadline timer, and
// the serving executor (src/serve/replica_driver.cc) from one event slot per
// replica, so the rules exist once.

#ifndef OOBP_SRC_SERVE_BATCHER_H_
#define OOBP_SRC_SERVE_BATCHER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/time.h"
#include "src/sim/engine.h"

namespace oobp {

struct BatcherConfig {
  int max_batch = 8;                 // dispatch at this many pending requests
  TimeNs max_queue_delay = Ms(2.0);  // or when the oldest waited this long
  int max_inflight = 1;              // batches concurrently on the device
};

// The batcher's queue and dispatch rule without a clock. Each call is one
// step of DynamicBatcher's, so a driver that makes the same calls at the
// same times reproduces it exactly.
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

class DynamicBatcher {
 public:
  // `dispatch(requests)` is called at simulation time with the request ids
  // (in arrival order) forming one batch; size in [1, max_batch].
  using DispatchFn = std::function<void(const std::vector<int64_t>&)>;

  DynamicBatcher(SimEngine* engine, BatcherConfig config, DispatchFn dispatch);
  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  // A request arrived now (ids must be distinct; arrival order == call order).
  void OnRequest(int64_t request_id);

  // A previously dispatched batch finished; frees its inflight slot and
  // immediately re-evaluates dispatch for queued requests.
  void OnBatchDone();

  int queue_depth() const { return queue_.queue_depth(); }
  int inflight() const { return queue_.inflight(); }
  const BatchQueue& queue() const { return queue_; }

 private:
  // Dispatches what the queue releases now, then re-arms the deadline timer.
  void MaybeDispatch();

  SimEngine* engine_;
  DispatchFn dispatch_;
  BatchQueue queue_;
  SimEngine::TimerHandle timer_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_BATCHER_H_

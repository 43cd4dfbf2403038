#include "src/serve/batcher.h"

#include <utility>

#include "src/common/check.h"

namespace oobp {

BatchQueue::BatchQueue(const BatcherConfig& config) : config_(config) {
  OOBP_CHECK_GT(config_.max_batch, 0);
  OOBP_CHECK_GE(config_.max_queue_delay, 0);
  OOBP_CHECK_GT(config_.max_inflight, 0);
}

void BatchQueue::Done() {
  OOBP_CHECK_GT(inflight_, 0);
  --inflight_;
}

DynamicBatcher::DynamicBatcher(SimEngine* engine, BatcherConfig config,
                               DispatchFn dispatch)
    : engine_(engine), dispatch_(std::move(dispatch)), queue_(config) {
  OOBP_CHECK(engine_ != nullptr);
  OOBP_CHECK(dispatch_ != nullptr);
}

void DynamicBatcher::OnRequest(int64_t request_id) {
  queue_.Push(request_id, engine_->now());
  MaybeDispatch();
}

void DynamicBatcher::OnBatchDone() {
  queue_.Done();
  MaybeDispatch();
}

void DynamicBatcher::MaybeDispatch() {
  const TimeNs deadline = queue_.Release(engine_->now(), dispatch_);
  engine_->Cancel(timer_);
  timer_ = SimEngine::TimerHandle();
  if (deadline >= 0) {
    timer_ = engine_->ScheduleAt(deadline, [this] { MaybeDispatch(); });
  }
}

}  // namespace oobp

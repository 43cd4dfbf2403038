#include "src/serve/batcher.h"

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

}  // namespace oobp

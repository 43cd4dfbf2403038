// BatchQueue semantics (src/serve/batcher.h): dispatch on a full batch or an
// expired deadline, whichever first; at most max_inflight batches on the
// device; arrival order preserved across batches. The queue has no clock:
// Drive plays the replica driver's part at scripted times.

#include "src/serve/batcher.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/time.h"

namespace oobp {
namespace {

struct Dispatched {
  TimeNs when;
  std::vector<int64_t> ids;
};

// A scripted call: request `request` arrives at `at`, or, when `request` is
// negative, a dispatched batch finishes then.
struct Call {
  TimeNs at;
  int64_t request;
};
constexpr int64_t kBatchDone = -1;

// Makes `calls` (in time order) on `queue` the way the replica driver does:
// every call releases what the rule allows, and the deadline Release
// returns fires unless a call comes first (a call at the deadline's instant
// runs before it). Returns every dispatch.
std::vector<Dispatched> Drive(BatchQueue& queue,
                              const std::vector<Call>& calls) {
  std::vector<Dispatched> out;
  TimeNs deadline = -1;
  const auto release = [&](TimeNs now) {
    deadline = queue.Release(now, [&](const std::vector<int64_t>& ids) {
      out.push_back({now, ids});
    });
  };
  for (const Call& call : calls) {
    while (deadline >= 0 && deadline < call.at) {
      release(deadline);
    }
    if (call.request == kBatchDone) {
      queue.Done();
    } else {
      queue.Push(call.request, call.at);
    }
    release(call.at);
  }
  while (deadline >= 0) {
    release(deadline);
  }
  return out;
}

TEST(BatcherTest, FullBatchDispatchesImmediately) {
  BatcherConfig config;
  config.max_batch = 2;
  config.max_queue_delay = Ms(5);
  config.max_inflight = 4;
  BatchQueue queue(config);
  const std::vector<Dispatched> out = Drive(queue, {{1000, 0}, {2000, 1}});

  // The second arrival completes the batch — no deadline wait.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].when, 2000);
  EXPECT_EQ(out[0].ids, (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(queue.queue_depth(), 0);
}

TEST(BatcherTest, DeadlineDispatchesPartialBatch) {
  BatcherConfig config;
  config.max_batch = 8;
  config.max_queue_delay = Ms(1);
  config.max_inflight = 4;
  BatchQueue queue(config);
  const std::vector<Dispatched> out = Drive(queue, {{1000, 0}});

  // Never fills: dispatched alone when the oldest request ages out.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].when, 1000 + Ms(1));
  EXPECT_EQ(out[0].ids, (std::vector<int64_t>{0}));
}

TEST(BatcherTest, DeadlineRunsOffOldestRequest) {
  BatcherConfig config;
  config.max_batch = 8;
  config.max_queue_delay = Ms(1);
  config.max_inflight = 4;
  BatchQueue queue(config);
  const std::vector<Dispatched> out =
      Drive(queue, {{1000, 0}, {1000 + Ms(1) / 2, 1}});

  // Both ride the deadline of request 0, not of the later arrival.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].when, 1000 + Ms(1));
  EXPECT_EQ(out[0].ids, (std::vector<int64_t>{0, 1}));
}

TEST(BatcherTest, InflightCapHoldsFullBatches) {
  BatcherConfig config;
  config.max_batch = 1;
  config.max_queue_delay = Ms(1);
  config.max_inflight = 1;
  BatchQueue queue(config);
  // The device frees a slot at 2 ms and 4 ms.
  const std::vector<Dispatched> out =
      Drive(queue, {{0, 0},
                    {10, 1},
                    {20, 2},
                    {Ms(2), kBatchDone},
                    {Ms(4), kBatchDone}});

  // Batch {0} goes out immediately; {1} and {2} are full but must wait for
  // an inflight slot, well past their 1 ms deadline.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].when, 0);
  EXPECT_EQ(out[1].when, Ms(2));
  EXPECT_EQ(out[2].when, Ms(4));
  EXPECT_EQ(out[1].ids, (std::vector<int64_t>{1}));
  EXPECT_EQ(out[2].ids, (std::vector<int64_t>{2}));
  EXPECT_EQ(queue.inflight(), 1);  // third batch never reported done
}

TEST(BatcherTest, PreservesArrivalOrderAndSizeCap) {
  BatcherConfig config;
  config.max_batch = 3;
  config.max_queue_delay = Ms(1);
  config.max_inflight = 4;
  BatchQueue queue(config);
  std::vector<Call> calls;
  for (int64_t i = 0; i < 7; ++i) {
    calls.push_back({100 * i, i});
  }
  const std::vector<Dispatched> out = Drive(queue, calls);

  std::vector<int64_t> all;
  for (const Dispatched& d : out) {
    EXPECT_GE(static_cast<int>(d.ids.size()), 1);
    EXPECT_LE(static_cast<int>(d.ids.size()), config.max_batch);
    all.insert(all.end(), d.ids.begin(), d.ids.end());
  }
  EXPECT_EQ(all, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6}));
}

// Release's return value is the timer the driver keeps: the oldest
// request's deadline, or -1 when nothing waits or no inflight slot is free.
TEST(BatcherTest, ReleaseReturnsTheOldestRequestsDeadline) {
  BatcherConfig config;
  config.max_batch = 4;
  config.max_queue_delay = Us(50);
  config.max_inflight = 1;
  BatchQueue queue(config);
  const auto never = [](const std::vector<int64_t>&) {
    ADD_FAILURE() << "nothing may dispatch yet";
  };
  EXPECT_EQ(queue.Release(0, never), -1);  // nothing waits
  queue.Push(0, Us(10));
  EXPECT_EQ(queue.Release(Us(10), never), Us(60));
  queue.Push(1, Us(30));
  EXPECT_EQ(queue.Release(Us(30), never), Us(60));  // still request 0's

  int dispatches = 0;
  EXPECT_EQ(queue.Release(Us(60),
                          [&](const std::vector<int64_t>& ids) {
                            EXPECT_EQ(ids, (std::vector<int64_t>{0, 1}));
                            ++dispatches;
                          }),
            -1);  // the queue is empty
  EXPECT_EQ(dispatches, 1);
  queue.Push(2, Us(70));
  EXPECT_EQ(queue.Release(Us(70), never), -1);  // the only slot is taken
  queue.Done();
  EXPECT_EQ(queue.Release(Us(80), never), Us(120));
}

}  // namespace
}  // namespace oobp

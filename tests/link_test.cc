#include <gtest/gtest.h>

#include <vector>

#include "src/hw/link.h"
#include "src/sim/engine.h"

namespace oobp {
namespace {

LinkSpec TestSpec(double gbps = 1.0, TimeNs latency = 0) {
  LinkSpec spec;
  spec.name = "test";
  spec.bandwidth_gbps = gbps;  // 1 GB/s == 1 byte/ns
  spec.latency = latency;
  return spec;
}

TEST(LinkSpecTest, PresetsMatchPaperBandwidths) {
  EXPECT_DOUBLE_EQ(LinkSpec::NvLink().bandwidth_gbps, 50.0);
  EXPECT_DOUBLE_EQ(LinkSpec::PcIe3().bandwidth_gbps, 16.0);
  EXPECT_DOUBLE_EQ(LinkSpec::Eth10G().bandwidth_gbps, 1.25);
}

TEST(LinkTest, SerializationTime) {
  SimEngine engine;
  Link link(&engine, TestSpec(2.0));  // 2 bytes/ns
  EXPECT_EQ(link.SerializationTime(1000), 500);
  EXPECT_EQ(link.SerializationTime(0), 0);
  EXPECT_GE(link.SerializationTime(1), 1);
}

TEST(LinkTest, SingleTransferLatencyPlusSerialization) {
  SimEngine engine;
  Link link(&engine, TestSpec(1.0, /*latency=*/100));
  TimeNs done = -1;
  link.Transfer(1000, 0, "t", [&] { done = engine.now(); });
  engine.Run();
  EXPECT_EQ(done, 1100);
}

TEST(LinkTest, FifoWithinSamePriority) {
  SimEngine engine;
  Link link(&engine, TestSpec());
  std::vector<int> order;
  link.Transfer(1000, 0, "a", [&] { order.push_back(0); });
  link.Transfer(1000, 0, "b", [&] { order.push_back(1); });
  link.Transfer(1000, 0, "c", [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(LinkTest, HigherPriorityPreemptsAtChunkBoundary) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100);
  TimeNs bulk_done = -1, urgent_done = -1;
  link.Transfer(1000, /*priority=*/10, "bulk",
                [&] { bulk_done = engine.now(); });
  engine.ScheduleAt(150, [&] {
    link.Transfer(100, /*priority=*/0, "urgent",
                  [&] { urgent_done = engine.now(); });
  });
  engine.Run();
  // The urgent transfer cuts in after the in-flight chunk (ends at 200) and
  // finishes at 300, long before the bulk transfer.
  EXPECT_EQ(urgent_done, 300);
  EXPECT_EQ(bulk_done, 1100);
}

// The chunk-boundary cases below pin what a fully preemptible link does when
// a transfer arrives at, or just before, a chunk boundary. 1 byte/ns and
// 100-byte chunks put the bulk transfer's boundaries at 100, 200, ...

TEST(LinkTest, ArrivalQueuedBeforeBoundaryPreemptsAtIt) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100);
  TimeNs bulk_done = -1, urgent_done = -1;
  link.Transfer(1000, /*priority=*/10, "bulk",
                [&] { bulk_done = engine.now(); });
  // Scheduled at t=0, so this event precedes the boundary at t=200, whose
  // event is scheduled at t=100: the urgent transfer is pending when the
  // boundary re-selects.
  engine.ScheduleAt(200, [&] {
    link.Transfer(100, /*priority=*/0, "urgent",
                  [&] { urgent_done = engine.now(); });
  });
  engine.Run();
  EXPECT_EQ(urgent_done, 300);
  EXPECT_EQ(bulk_done, 1100);
  EXPECT_EQ(link.busy_time(), 1100);
}

TEST(LinkTest, ArrivalQueuedAfterBoundaryWaitsOneChunk) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100);
  TimeNs bulk_done = -1, urgent_done = -1;
  link.Transfer(1000, /*priority=*/10, "bulk",
                [&] { bulk_done = engine.now(); });
  // Scheduled at t=150, after the boundary event at t=200 was scheduled (at
  // t=100): the bulk transfer's next chunk has already started when the
  // urgent transfer arrives, so it cuts in at t=300.
  engine.ScheduleAt(150, [&] {
    engine.ScheduleAt(200, [&] {
      link.Transfer(100, /*priority=*/0, "urgent",
                    [&] { urgent_done = engine.now(); });
    });
  });
  engine.Run();
  EXPECT_EQ(urgent_done, 400);
  EXPECT_EQ(bulk_done, 1100);
  EXPECT_EQ(link.busy_time(), 1100);
}

TEST(LinkTest, EqualPriorityNewcomerNeverPreempts) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100);
  TimeNs first_done = -1, second_done = -1;
  link.Transfer(1000, /*priority=*/5, "first",
                [&] { first_done = engine.now(); });
  engine.ScheduleAt(150, [&] {
    link.Transfer(100, /*priority=*/5, "second",
                  [&] { second_done = engine.now(); });
  });
  engine.Run();
  EXPECT_EQ(first_done, 1000);
  EXPECT_EQ(second_done, 1100);
}

TEST(LinkTest, PreemptedMessagePaysLatencyOnce) {
  SimEngine engine;
  Link link(&engine, TestSpec(1.0, /*latency=*/50), /*chunk_bytes=*/100);
  TimeNs bulk_done = -1, urgent_done = -1;
  link.Transfer(1000, /*priority=*/10, "bulk",
                [&] { bulk_done = engine.now(); });
  engine.ScheduleAt(120, [&] {
    link.Transfer(100, /*priority=*/0, "urgent",
                  [&] { urgent_done = engine.now(); });
  });
  engine.Run();
  // Bulk's first chunk (latency + 100 B) ends at 150; urgent runs 150-300;
  // bulk resumes without paying latency again and sends 900 B by 1200.
  EXPECT_EQ(urgent_done, 300);
  EXPECT_EQ(bulk_done, 1200);
  EXPECT_EQ(link.busy_time(), 1200);
}

TEST(LinkTest, CommitWindowLimitsPreemption) {
  SimEngine engine;
  // Window of 500 bytes: that much bulk data is committed and cannot be
  // bypassed.
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100,
            /*commit_window_bytes=*/500);
  TimeNs urgent_done = -1;
  std::vector<TimeNs> bulk_done;
  // Bulk traffic arrives as 100-byte partitions (as the data-parallel
  // engine submits it).
  for (int i = 0; i < 10; ++i) {
    link.Transfer(100, /*priority=*/10, "bulk",
                  [&] { bulk_done.push_back(engine.now()); });
  }
  engine.ScheduleAt(10, [&] {
    link.Transfer(100, /*priority=*/0, "urgent",
                  [&] { urgent_done = engine.now(); });
  });
  engine.Run();
  // At t=10 the committed region holds the first five bulk partitions
  // (500 bytes); the urgent message transmits only after they drain, then
  // the rest of the bulk backlog follows.
  EXPECT_EQ(urgent_done, 600);
  EXPECT_EQ(bulk_done, (std::vector<TimeNs>{100, 200, 300, 400, 500, 700, 800,
                                            900, 1000, 1100}));
}

TEST(LinkTest, CommitWindowZeroIsFullyPreemptible) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/100, 0);
  TimeNs urgent_done = -1;
  link.Transfer(10000, 10, "bulk", [] {});
  engine.ScheduleAt(10, [&] {
    link.Transfer(100, 0, "urgent", [&] { urgent_done = engine.now(); });
  });
  engine.Run();
  EXPECT_LE(urgent_done, 300);  // right after the in-flight chunk
}

TEST(LinkTest, DoneQueriesAndBusyTime) {
  SimEngine engine;
  Link link(&engine, TestSpec());
  const Link::TransferId id = link.Transfer(500, 0, "x", nullptr);
  EXPECT_FALSE(link.Done(id));
  engine.Run();
  EXPECT_TRUE(link.Done(id));
  EXPECT_EQ(link.busy_time(), 500);
  EXPECT_TRUE(link.idle());
}

TEST(LinkDeathTest, DoneOnUnknownIdAborts) {
  SimEngine engine;
  Link link(&engine, TestSpec());
  link.Transfer(100, 0, "a", nullptr);
  const Link::TransferId last = link.Transfer(100, 0, "b", nullptr);
  EXPECT_DEATH(link.Done(0), "unknown transfer id");
  EXPECT_DEATH(link.Done(-1), "unknown transfer id");
  EXPECT_DEATH(link.Done(last + 1), "unknown transfer id");
}

TEST(LinkTest, LatencyPaidOncePerMessageNotPerChunk) {
  SimEngine engine;
  Link link(&engine, TestSpec(1.0, /*latency=*/50), /*chunk_bytes=*/100);
  TimeNs done = -1;
  link.Transfer(400, 0, "m", [&] { done = engine.now(); });
  engine.Run();
  EXPECT_EQ(done, 450);  // 4 chunks of 100 + one latency
}

TEST(LinkTest, ManyConcurrentTransfersAllComplete) {
  SimEngine engine;
  Link link(&engine, TestSpec(), /*chunk_bytes=*/64);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    link.Transfer(97 + i, i % 7, "t", [&] { ++completed; });
  }
  engine.Run();
  EXPECT_EQ(completed, 100);
}

// ChunkTiming is the schedule Link gives a message nothing outranks: every
// chunk end, the completion, the busy time and the event count (one per
// chunk) agree with a real run, for short, exact-multiple and ragged sizes.
TEST(ChunkTimingTest, MatchesALoneMessageOnALink) {
  const LinkSpec spec = TestSpec(/*gbps=*/3.0, /*latency=*/70);
  for (const int64_t bytes : {1, 99, 100, 101, 250, 1000, 1234}) {
    SimEngine engine;
    Link link(&engine, spec, /*chunk_bytes=*/100);
    TimeNs done = -1;
    link.Transfer(bytes, 0, "m", [&] { done = engine.now(); });
    std::vector<TimeNs> chunk_ends;
    while (engine.Step()) {
      chunk_ends.push_back(engine.now());
    }
    const ChunkTiming timing(spec, 100, bytes);
    ASSERT_EQ(static_cast<int64_t>(chunk_ends.size()), timing.chunks)
        << bytes;
    for (int64_t j = 1; j <= timing.chunks; ++j) {
      EXPECT_EQ(chunk_ends[static_cast<size_t>(j - 1)], timing.ChunkEnd(j))
          << bytes << " bytes, chunk " << j;
    }
    EXPECT_EQ(done, timing.End()) << bytes;
    EXPECT_EQ(link.busy_time(), timing.End()) << bytes;
  }
}

}  // namespace
}  // namespace oobp

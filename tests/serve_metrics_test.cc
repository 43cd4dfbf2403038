// ComputeServeMetrics / ServeMetricsToKv (src/serve/serve_metrics.h):
// aggregation over request records, nearest-rank percentiles, SLO
// accounting, and the stable key set golden files reference.

#include "src/serve/serve_metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/time.h"

namespace oobp {
namespace {

RequestRecord MakeRequest(TimeNs arrival, TimeNs dispatch, TimeNs done,
                          int batch_size) {
  RequestRecord r;
  r.arrival = arrival;
  r.dispatch = dispatch;
  r.exec_start = dispatch;
  r.done = done;
  r.batch_size = batch_size;
  return r;
}

TEST(ServeMetricsTest, AggregatesCompletedRequests) {
  // Latencies 1, 2, 3, 9 ms; SLO at 5 ms cuts the last one.
  std::vector<RequestRecord> reqs = {
      MakeRequest(0, Ms(1), Ms(1), 2),
      MakeRequest(Ms(10), Ms(11), Ms(12), 2),
      MakeRequest(Ms(20), Ms(21), Ms(23), 1),
      MakeRequest(Ms(30), Ms(35), Ms(39), 1),
  };
  const TimeNs horizon = Ms(1000);
  const ServeMetrics m = ComputeServeMetrics(reqs, /*num_batches=*/3, horizon,
                                             /*slo=*/Ms(5));

  EXPECT_EQ(m.num_requests, 4);
  EXPECT_EQ(m.num_completed, 4);
  EXPECT_EQ(m.num_batches, 3);
  EXPECT_DOUBLE_EQ(m.offered_rps, 4.0);    // 4 over a 1 s horizon
  EXPECT_DOUBLE_EQ(m.completed_rps, 4.0);
  EXPECT_DOUBLE_EQ(m.goodput_rps, 3.0);    // 3 within SLO
  EXPECT_DOUBLE_EQ(m.slo_attainment, 0.75);

  // Nearest-rank over {1, 2, 3, 9} ms: p50 -> rank 2, p95/p99 -> rank 4.
  EXPECT_EQ(m.p50_latency, Ms(2));
  EXPECT_EQ(m.p95_latency, Ms(9));
  EXPECT_EQ(m.p99_latency, Ms(9));
  EXPECT_EQ(m.max_latency, Ms(9));
  EXPECT_DOUBLE_EQ(m.mean_latency_ms, (1.0 + 2.0 + 3.0 + 9.0) / 4.0);
  // Queue delay = dispatch - arrival: 1, 1, 1, 5 ms.
  EXPECT_DOUBLE_EQ(m.mean_queue_delay_ms, 2.0);
  EXPECT_DOUBLE_EQ(m.mean_batch_size, 1.5);
  EXPECT_EQ(m.batch_sizes.count(1), 2);
  EXPECT_EQ(m.batch_sizes.count(2), 2);
}

TEST(ServeMetricsTest, InflightRequestsCountAsOfferedOnly) {
  std::vector<RequestRecord> reqs = {
      MakeRequest(0, Ms(1), Ms(2), 1),
      RequestRecord{/*arrival=*/Ms(10)},  // never dispatched
  };
  const ServeMetrics m =
      ComputeServeMetrics(reqs, /*num_batches=*/1, Ms(1000), Ms(5));
  EXPECT_EQ(m.num_requests, 2);
  EXPECT_EQ(m.num_completed, 1);
  EXPECT_DOUBLE_EQ(m.slo_attainment, 1.0);  // over completed only
  EXPECT_EQ(m.p50_latency, Ms(2));
}

TEST(ServeMetricsTest, KvKeysAreStable) {
  std::vector<RequestRecord> reqs = {MakeRequest(0, Ms(1), Ms(2), 3)};
  const ServeMetrics m = ComputeServeMetrics(reqs, 1, Ms(100), Ms(5));
  const std::vector<MetricKv> kv = ServeMetricsToKv(m, "rps100.");

  const std::vector<std::string> expected = {
      "rps100.offered_rps",   "rps100.completed_rps", "rps100.goodput_rps",
      "rps100.slo_attainment", "rps100.p50_ms",       "rps100.p95_ms",
      "rps100.p99_ms",        "rps100.max_ms",        "rps100.mean_ms",
      "rps100.queue_delay_ms", "rps100.exec_ms",      "rps100.mean_batch",
      "rps100.num_batches",   "rps100.batch_count_3",
  };
  ASSERT_EQ(kv.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(kv[i].key, expected[i]) << "at index " << i;
  }
  // Only non-empty histogram buckets are emitted.
  for (const MetricKv& e : kv) {
    EXPECT_EQ(e.key.find("batch_count_1"), std::string::npos);
  }
}

TEST(ServeMetricsTest, EmptyWindowReportsSentinelPercentiles) {
  // A window with no completions — e.g. a fleet replica scaled down before
  // its first batch finished — must report the kNoSample sentinel, not a
  // fabricated 0 ns latency that would read as "instant".
  const ServeMetrics empty = ComputeServeMetrics({}, 0, Ms(100), Ms(5));
  EXPECT_EQ(empty.num_completed, 0);
  EXPECT_EQ(empty.p50_latency, ServeMetrics::kNoSample);
  EXPECT_EQ(empty.p95_latency, ServeMetrics::kNoSample);
  EXPECT_EQ(empty.p99_latency, ServeMetrics::kNoSample);
  EXPECT_EQ(empty.max_latency, ServeMetrics::kNoSample);

  // Offered-but-never-completed requests leave the window empty too.
  const std::vector<RequestRecord> inflight = {RequestRecord{Ms(1)}};
  const ServeMetrics m = ComputeServeMetrics(inflight, 0, Ms(100), Ms(5));
  EXPECT_EQ(m.num_requests, 1);
  EXPECT_EQ(m.num_completed, 0);
  EXPECT_EQ(m.p99_latency, ServeMetrics::kNoSample);

  // The Kv serialization forwards the sentinel as exactly -1 (a naive
  // ToMs(kNoSample) would emit -1e-6 and break golden comparisons).
  const std::vector<MetricKv> kv = ServeMetricsToKv(m, "");
  int sentinels = 0;
  for (const MetricKv& e : kv) {
    if (e.key == "p50_ms" || e.key == "p95_ms" || e.key == "p99_ms" ||
        e.key == "max_ms") {
      EXPECT_EQ(e.value, -1.0) << e.key;
      ++sentinels;
    }
  }
  EXPECT_EQ(sentinels, 4);
}

// Batch sizes past the histogram's default 32 buckets keep their own bucket
// instead of being clamped into batch_count_32.
TEST(ServeMetricsTest, BatchesLargerThan32KeepTheirSize) {
  std::vector<RequestRecord> reqs;
  for (int i = 0; i < 40; ++i) {
    reqs.push_back(MakeRequest(0, Ms(1), Ms(2), 40));
  }
  const ServeMetrics m = ComputeServeMetrics(reqs, /*num_batches=*/1,
                                             Ms(100), /*slo=*/Ms(5));
  EXPECT_EQ(m.batch_sizes.count(40), 40);
  EXPECT_EQ(m.batch_sizes.count(32), 0);
  EXPECT_DOUBLE_EQ(m.batch_sizes.mean(), m.mean_batch_size);
  const std::vector<MetricKv> kv = ServeMetricsToKv(m, "");
  bool count_40 = false;
  for (const MetricKv& e : kv) {
    EXPECT_NE(e.key, "batch_count_32");
    if (e.key == "batch_count_40") {
      count_40 = true;
      EXPECT_EQ(e.value, 40.0);
    }
  }
  EXPECT_TRUE(count_40);
}

}  // namespace
}  // namespace oobp

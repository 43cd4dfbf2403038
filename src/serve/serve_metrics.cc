#include "src/serve/serve_metrics.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/str_util.h"

namespace oobp {

ServeMetrics ComputeServeMetrics(const std::vector<RequestRecord>& requests,
                                 int64_t num_batches, TimeNs horizon,
                                 TimeNs slo) {
  OOBP_CHECK_GT(horizon, 0);
  ServeMetrics m;
  m.num_requests = static_cast<int64_t>(requests.size());
  m.num_batches = num_batches;
  m.offered_rps = static_cast<double>(m.num_requests) / ToSec(horizon);

  std::vector<TimeNs> latencies;
  latencies.reserve(requests.size());
  int64_t within_slo = 0;
  int largest_batch = 0;
  double sum_latency = 0.0, sum_queue = 0.0, sum_exec = 0.0, sum_batch = 0.0;
  for (const RequestRecord& r : requests) {
    if (!r.completed()) {
      continue;
    }
    const TimeNs lat = r.latency();
    latencies.push_back(lat);
    if (lat <= slo) {
      ++within_slo;
    }
    sum_latency += static_cast<double>(lat);
    sum_queue += static_cast<double>(r.exec_start - r.arrival);
    sum_exec += static_cast<double>(r.done - r.exec_start);
    sum_batch += static_cast<double>(r.batch_size);
    largest_batch = std::max(largest_batch, r.batch_size);
  }
  // Sized to the largest batch recorded, so no batch size is clamped into
  // another's bucket.
  m.batch_sizes =
      IntHistogram(std::max(m.batch_sizes.max_value(), largest_batch));
  for (const RequestRecord& r : requests) {
    if (r.completed()) {
      m.batch_sizes.Add(r.batch_size);
    }
  }
  m.num_completed = static_cast<int64_t>(latencies.size());
  m.completed_rps = static_cast<double>(m.num_completed) / ToSec(horizon);
  m.goodput_rps = static_cast<double>(within_slo) / ToSec(horizon);
  if (m.num_completed == 0) {
    // Empty window (no completion before the simulation drained — e.g. a
    // fleet replica scaled down before serving anything): leave the order
    // statistics at the kNoSample sentinel rather than sorting an empty
    // sample into a fake 0 ns latency.
    return m;
  }
  m.slo_attainment =
      static_cast<double>(within_slo) / static_cast<double>(m.num_completed);

  std::sort(latencies.begin(), latencies.end());
  const std::vector<double> sorted(latencies.begin(), latencies.end());
  m.p50_latency = static_cast<TimeNs>(PercentileSorted(sorted, 50.0));
  m.p95_latency = static_cast<TimeNs>(PercentileSorted(sorted, 95.0));
  m.p99_latency = static_cast<TimeNs>(PercentileSorted(sorted, 99.0));
  m.max_latency = latencies.back();
  const double n = static_cast<double>(m.num_completed);
  m.mean_latency_ms = sum_latency / n / static_cast<double>(kNsPerMs);
  m.mean_queue_delay_ms = sum_queue / n / static_cast<double>(kNsPerMs);
  m.mean_exec_ms = sum_exec / n / static_cast<double>(kNsPerMs);
  m.mean_batch_size = sum_batch / n;
  return m;
}

std::vector<MetricKv> ServeMetricsToKv(const ServeMetrics& m,
                                       const std::string& prefix) {
  // The kNoSample sentinel passes through as exactly -1 (not -1e-6 "ms") so
  // golden files and downstream tooling can test for it.
  const auto pct_ms = [](TimeNs t) {
    return t == ServeMetrics::kNoSample ? -1.0 : ToMs(t);
  };
  std::vector<MetricKv> kv = {
      {prefix + "offered_rps", m.offered_rps},
      {prefix + "completed_rps", m.completed_rps},
      {prefix + "goodput_rps", m.goodput_rps},
      {prefix + "slo_attainment", m.slo_attainment},
      {prefix + "p50_ms", pct_ms(m.p50_latency)},
      {prefix + "p95_ms", pct_ms(m.p95_latency)},
      {prefix + "p99_ms", pct_ms(m.p99_latency)},
      {prefix + "max_ms", pct_ms(m.max_latency)},
      {prefix + "mean_ms", m.mean_latency_ms},
      {prefix + "queue_delay_ms", m.mean_queue_delay_ms},
      {prefix + "exec_ms", m.mean_exec_ms},
      {prefix + "mean_batch", m.mean_batch_size},
      {prefix + "num_batches", static_cast<double>(m.num_batches)},
  };
  for (int b = 0; b <= m.batch_sizes.max_value(); ++b) {
    if (m.batch_sizes.count(b) > 0) {
      kv.push_back({prefix + StrFormat("batch_count_%d", b),
                    static_cast<double>(m.batch_sizes.count(b))});
    }
  }
  return kv;
}

}  // namespace oobp

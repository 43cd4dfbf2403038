// Serving-side metrics: latency distribution, goodput, SLO attainment and
// batch-size histogram, flattened through the same MetricKv path the
// training metrics use so serve scenarios flow through the existing golden
// machinery unchanged.

#ifndef OOBP_SRC_SERVE_SERVE_METRICS_H_
#define OOBP_SRC_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/runtime/metrics.h"

namespace oobp {

// One served inference request, recorded by the serve engine.
struct RequestRecord {
  TimeNs arrival = 0;
  TimeNs dispatch = -1;    // batch dispatch time (-1: never dispatched)
  TimeNs exec_start = -1;  // first kernel of its batch began executing
  TimeNs done = -1;        // last kernel of its batch completed
  int batch_size = 0;

  bool completed() const { return done >= 0; }
  TimeNs latency() const { return done - arrival; }
};

struct ServeMetrics {
  // Order statistics over an empty completion window (e.g. a fleet replica
  // scaled down before its first completion) report this sentinel instead of
  // a fabricated 0 ns latency; ServeMetricsToKv forwards it as -1.
  static constexpr TimeNs kNoSample = -1;

  int64_t num_requests = 0;   // offered over the horizon
  int64_t num_completed = 0;  // finished before the simulation drained
  int64_t num_batches = 0;

  double offered_rps = 0.0;
  double completed_rps = 0.0;  // completions / horizon
  double goodput_rps = 0.0;    // completions within SLO / horizon
  double slo_attainment = 0.0;  // within-SLO fraction of completed

  // Order statistics over completed-request latency (exact, nearest-rank);
  // kNoSample when no request completed.
  TimeNs p50_latency = kNoSample;
  TimeNs p95_latency = kNoSample;
  TimeNs p99_latency = kNoSample;
  TimeNs max_latency = kNoSample;
  double mean_latency_ms = 0.0;
  // Decomposition: host+batching queue delay vs contended GPU execution.
  double mean_queue_delay_ms = 0.0;
  double mean_exec_ms = 0.0;

  double mean_batch_size = 0.0;
  // Completed requests by the size of their batch; ComputeServeMetrics
  // widens it past 32 to the largest batch recorded.
  IntHistogram batch_sizes{32};
};

// Aggregates request records. Requests still in flight when the simulation
// drained count as offered but not completed. `slo` bounds arrival-to-done
// latency; `horizon` is the arrival-generation window (rates are per
// horizon-second, keeping offered vs completed comparable).
ServeMetrics ComputeServeMetrics(const std::vector<RequestRecord>& requests,
                                 int64_t num_batches, TimeNs horizon,
                                 TimeNs slo);

// Flattens into the runner's key/value form. Stable keys (golden files
// reference them): <prefix>offered_rps, completed_rps, goodput_rps,
// slo_attainment, p50_ms, p95_ms, p99_ms, max_ms, mean_ms, queue_delay_ms,
// exec_ms, mean_batch, num_batches, plus batch_count_<k> for every non-empty
// histogram bucket.
std::vector<MetricKv> ServeMetricsToKv(const ServeMetrics& m,
                                       const std::string& prefix = "");

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_SERVE_METRICS_H_

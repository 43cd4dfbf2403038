// Metrics reported by the training engines.

#ifndef OOBP_SRC_RUNTIME_METRICS_H_
#define OOBP_SRC_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace oobp {

struct TrainMetrics {
  TimeNs iteration_time = 0;              // steady-state time per iteration
  double throughput = 0.0;                // global samples (images/seqs) per second
  double gpu_utilization = 0.0;           // busy fraction (avg across GPUs)
  double comm_comp_ratio = 0.0;           // communication time / compute time
  int64_t peak_memory_bytes = 0;          // per-GPU peak (activations + base)
  bool oom = false;                       // peak exceeded device memory
};

// Telemetry of the steady-state replay fast path (DESIGN.md §9), shared by
// the single-GPU and pipeline engines: whether the run was extrapolated, how
// many iterations were event-simulated, and why the engine fell back when it
// did not replay.
struct ReplayStats {
  bool attempted = false;  // run was long enough and replay was enabled
  bool replayed = false;   // periodicity proven; tail extrapolated
  int simulated_iterations = 0;  // iterations actually simulated
  int total_iterations = 0;      // warm-up + measured
  // Empty when replayed: "disabled", "traced", "short-run", "synchronous"
  // (pipeline flush strategies complete in one simulated iteration —
  // nothing to extrapolate), or "aperiodic" (detection failed; full rerun).
  std::string fallback_reason;
  // The run went through the engine's exact executor (single-GPU: the
  // two-stream executor; pipeline: the message-level executor) rather than
  // the event simulation (DESIGN.md §6.3). False for traced runs and under
  // the SimValidator, which need the event path.
  bool executor = false;
};

// One serializable metric entry; ordered lists of these are what the
// scenario runner writes into BENCH_<scenario>.json and compares against
// golden values.
struct MetricKv {
  std::string key;
  double value = 0.0;
};

// Flattens TrainMetrics into the runner's key/value form. Keys are stable
// API: golden files reference them (`<prefix>iteration_ms`, ...).
inline std::vector<MetricKv> MetricsToKv(const TrainMetrics& m,
                                         const std::string& prefix = "") {
  return {{prefix + "iteration_ms", ToMs(m.iteration_time)},
          {prefix + "throughput", m.throughput},
          {prefix + "gpu_utilization", m.gpu_utilization},
          {prefix + "comm_comp_ratio", m.comm_comp_ratio},
          {prefix + "peak_memory_mb", static_cast<double>(m.peak_memory_bytes) / 1e6},
          {prefix + "oom", m.oom ? 1.0 : 0.0}};
}

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_METRICS_H_

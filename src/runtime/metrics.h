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

// How a training run was stepped, in the same terms for the single-GPU,
// data-parallel and pipeline engines (DESIGN.md §9.2). An unobserved run
// takes the engine's exact executor, which stops at the first iteration
// boundary whose state repeats an earlier one and extrapolates the rest; an
// observed run (a trace recorder or validator subscribed, src/hw/observer.h)
// takes the event simulation, which steps every iteration (DESIGN.md §6.3).
struct ReplayStats {
  // The run took the executor, which looks for a repeated boundary. False
  // on the event path and for the synchronous pipeline strategies, which
  // run one iteration.
  bool attempted = false;
  bool replayed = false;         // a boundary repeated; the rest extrapolated
  int simulated_iterations = 0;  // iterations stepped
  int total_iterations = 0;      // warm-up + measured
  // Empty when replayed. "observed" (the event path), "synchronous" (a
  // pipeline strategy that flushes every iteration) or "aperiodic" (the
  // executor stepped every iteration).
  std::string fallback_reason;
  // The run went through the engine's exact executor (single-GPU: the
  // two-stream executor; data-parallel: the five-slot executor; pipeline:
  // the message-level executor) rather than the event simulation.
  bool executor = false;
};

// The stats of a run that stepped `simulated` of `total` iterations, on the
// executor or, when the run was observed, on the event path.
inline ReplayStats StepStats(bool executor, int simulated, int total) {
  ReplayStats stats;
  stats.executor = executor;
  stats.attempted = executor;
  stats.replayed = simulated < total;
  stats.simulated_iterations = simulated;
  stats.total_iterations = total;
  if (!executor) {
    stats.fallback_reason = "observed";
  } else if (!stats.replayed) {
    stats.fallback_reason = "aperiodic";
  }
  return stats;
}

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

// Inference-serving engine: replays an arrival trace through the dynamic
// batcher and issues per-layer inference (forward) kernels onto the fluid
// GPU model, optionally co-run with a training workload.
//
// Stream/priority layout (fixed for all modes):
//   stream 0, priority 0 — training main stream (forward, dO)
//   stream 1, priority 2 — training sub stream (dW, updates)
//   stream 2, priority 1 — inference
// With ooo-backprop, weight gradients live on the priority-2 sub stream, so
// inference preempts them in SM-slot allocation and fills the occupancy the
// reordered dW kernels would otherwise monopolize; the in-order baseline
// keeps all training on the priority-0 main stream, and inference only gets
// the leftover slots of whatever training kernel is resident. That is the
// serving-side value of out-of-order backprop this subsystem measures.
//
// Each batch is issued like a captured graph: one graph-launch latency, then
// all per-layer kernels enqueued on the inference stream (in-stream order
// serializes them, matching CUDA stream semantics).
//
// A ServeEngine run is the one-replica case of the replica driver that also
// runs FleetEngine (src/serve/replica_driver.h): no router, no autoscaler.
// Observed runs (src/hw/observer.h) step SimEngine events; every other run
// takes the exact slot executor, with the same metrics bit for bit.

#ifndef OOBP_SRC_SERVE_SERVE_ENGINE_H_
#define OOBP_SRC_SERVE_SERVE_ENGINE_H_

#include <functional>

#include "src/core/schedule.h"
#include "src/hw/gpu_spec.h"
#include "src/nn/cost_model.h"
#include "src/nn/layer.h"
#include "src/runtime/metrics.h"
#include "src/serve/arrival.h"
#include "src/serve/batcher.h"
#include "src/serve/serve_metrics.h"

namespace oobp {

struct ServeConfig {
  GpuSpec gpu;
  SystemProfile profile;
  ArrivalSpec arrivals;
  BatcherConfig batcher;
  TimeNs horizon = Ms(200);  // arrival-generation window
  TimeNs slo = Ms(20);       // arrival-to-completion latency bound
  // Inference model at a given batch size; called once per size in
  // [1, batcher.max_batch] to precompute per-layer kernel costs.
  std::function<NnModel(int batch)> make_model;
};

struct ServeCorunResult {
  ServeMetrics serve;
  TrainMetrics train;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig config);

  // Inference alone on the device (no training contention).
  ServeMetrics RunServeOnly() const;

  // Inference co-run with `train_iterations` repetitions of the training
  // schedule (issued pre-compiled, as in XLA+Opt1). The schedule's stream
  // tags select the mode: ConventionalIteration keeps everything on the
  // main stream (in-order baseline); a joint schedule moves dW/updates to
  // the sub stream (ooo-backprop). `train_iterations` must be >= 2 (one
  // warm-up + measured window) and should cover the serve horizon so
  // requests face contention throughout.
  ServeCorunResult RunCorun(const NnModel& train_model,
                            const IterationSchedule& train_schedule,
                            int train_iterations) const;

  const ServeConfig& config() const { return config_; }

 private:
  ServeConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_SERVE_ENGINE_H_

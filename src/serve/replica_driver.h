// Internal to src/serve: the one replica driver behind ServeEngine and
// FleetEngine.
//
// A serving run is a set of replica GPUs, each with the fixed three-stream
// layout of serve_engine.h, a dynamic batcher and, in co-run mode, a
// training job issued as one pre-compiled graph. ReplicaDriver makes every
// decision of the run: routing (FleetRouter), batching (one BatchQueue per
// replica) and scaling (ScalePolicy), batch dispatch and graph launch,
// batch-done bookkeeping, the co-run training launch, and the serve and
// train metrics. Two backends keep the clock and the devices and offer the
// driver timers — each replica's batching deadline and warm-up, and the
// autoscaler's tick (DESIGN.md §6.3):
//   * the event backend — SimEngine + Gpu + CpuLauncher — the reference,
//     and the only producer observers hear from; observed runs take it
//     (src/hw/observer.h);
//   * the slot executor, which keeps each replica's events in fixed slots
//     and reproduces the event backend bit for bit; every other run takes
//     it.
// No flag selects the path.

#ifndef OOBP_SRC_SERVE_REPLICA_DRIVER_H_
#define OOBP_SRC_SERVE_REPLICA_DRIVER_H_

#include "src/core/schedule.h"
#include "src/nn/layer.h"
#include "src/serve/fleet_engine.h"

namespace oobp {

// Runs `config`'s replicas to completion. `fleet` is FleetEngine's run: a
// router and an autoscaler over autoscaler.max_replicas replicas, and the
// replicas' training launches scheduled before the arrivals. Without it the
// run is ServeEngine's: one replica taking every request, its arrivals
// scheduled before its training launch. `train_model` null is a serve-only
// run; otherwise every replica co-runs `train_iterations` repetitions of
// `train_schedule`. Without `fleet`, only `serve` and `train` of the result
// are filled.
FleetMetrics RunReplicas(const FleetConfig& config, bool fleet,
                         const NnModel* train_model,
                         const IterationSchedule* train_schedule,
                         int train_iterations);

}  // namespace oobp

#endif  // OOBP_SRC_SERVE_REPLICA_DRIVER_H_

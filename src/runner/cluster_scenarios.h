// Registration of the cluster-scale parameter-server scenarios.
//
// Two scenarios over the cluster PS engine (src/runtime/cluster_ps_engine.h),
// sharing model, fleet shape, links, and straggler draw so their golden
// files isolate the gradient-ordering effect:
//   cluster_ps_conv_16 — 16 workers, conventional top-down weight gradients,
//       FIFO pushes: layer 0's synchronization sits fully exposed between
//       iterations.
//   cluster_ps_ooo_16 — same cluster, reverse-first weight gradients with
//       layer-index priorities on the preemptive links: low-layer updates
//       return while the remaining backward pass still computes.

#ifndef OOBP_SRC_RUNNER_CLUSTER_SCENARIOS_H_
#define OOBP_SRC_RUNNER_CLUSTER_SCENARIOS_H_

namespace oobp {

// Registers all cluster scenarios (label "cluster") into
// ScenarioRegistry::Global(); idempotent.
void RegisterClusterScenarios();

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_CLUSTER_SCENARIOS_H_

#include "src/serve/serve_engine.h"

#include <utility>

#include "src/common/check.h"
#include "src/serve/replica_driver.h"

namespace oobp {

namespace {

// A ServeEngine run is the replica driver's one-replica case: no envelope,
// no router, no autoscaler.
FleetConfig AsOneReplica(const ServeConfig& config) {
  FleetConfig fleet;
  fleet.gpu = config.gpu;
  fleet.profile = config.profile;
  fleet.arrivals = config.arrivals;
  fleet.batcher = config.batcher;
  fleet.horizon = config.horizon;
  fleet.slo = config.slo;
  fleet.make_model = config.make_model;
  return fleet;
}

}  // namespace

ServeEngine::ServeEngine(ServeConfig config) : config_(std::move(config)) {
  OOBP_CHECK(config_.make_model != nullptr);
  OOBP_CHECK_GT(config_.horizon, 0);
  OOBP_CHECK_GT(config_.slo, 0);
}

ServeMetrics ServeEngine::RunServeOnly() const {
  return RunReplicas(AsOneReplica(config_), /*fleet=*/false, nullptr, nullptr,
                     0)
      .serve;
}

ServeCorunResult ServeEngine::RunCorun(const NnModel& train_model,
                                       const IterationSchedule& train_schedule,
                                       int train_iterations) const {
  OOBP_CHECK_GE(train_iterations, 2);
  FleetMetrics m = RunReplicas(AsOneReplica(config_), /*fleet=*/false,
                               &train_model, &train_schedule, train_iterations);
  return {std::move(m.serve), m.train};
}

}  // namespace oobp

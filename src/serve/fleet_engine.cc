#include "src/serve/fleet_engine.h"

#include <utility>

#include "src/common/check.h"
#include "src/serve/replica_driver.h"

namespace oobp {

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  OOBP_CHECK(config_.make_model != nullptr);
  OOBP_CHECK_GT(config_.horizon, 0);
  OOBP_CHECK_GT(config_.slo, 0);
  OOBP_CHECK_GE(config_.autoscaler.min_replicas, 1);
}

FleetMetrics FleetEngine::RunServeOnly() const {
  return RunReplicas(config_, /*fleet=*/true, nullptr, nullptr, 0);
}

FleetMetrics FleetEngine::RunCorun(const NnModel& train_model,
                                   const IterationSchedule& train_schedule,
                                   int train_iterations) const {
  OOBP_CHECK_GE(train_iterations, 2);
  return RunReplicas(config_, /*fleet=*/true, &train_model, &train_schedule,
                     train_iterations);
}

}  // namespace oobp

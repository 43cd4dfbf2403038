#include "src/runner/fleet_scenarios.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/schedule.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/serve/fleet_engine.h"

namespace oobp {
namespace {

NnModel InferResNet50(int batch) { return ResNet(50, batch, 224); }

FleetConfig BaseFleetConfig(const ScenarioParams& params, int replicas,
                            RoutingPolicy policy, double horizon_ms) {
  FleetConfig cfg;
  cfg.gpu = GpuSpec::V100();
  cfg.profile = SystemProfile::TensorFlowXla();
  cfg.horizon = Ms(params.GetDouble("horizon_ms", horizon_ms));
  cfg.slo = Ms(params.GetDouble("slo_ms", 40.0));
  cfg.batcher.max_batch = params.GetInt("max_batch", 8);
  cfg.batcher.max_queue_delay =
      Ms(params.GetDouble("max_queue_delay_ms", 1.0));
  cfg.batcher.max_inflight = 1;
  cfg.router.policy = policy;
  cfg.router.seed = 0xF1EE7ull * 1000003ull +
                    static_cast<uint64_t>(replicas) * 8ull +
                    static_cast<uint64_t>(policy);
  cfg.autoscaler.max_replicas = replicas;
  cfg.make_model = InferResNet50;
  return cfg;
}

// Flattens a FleetMetrics into the scenario's key/value map under `prefix`:
// the fleet-wide ServeMetrics keys plus router/autoscaler outcome and the
// completion spread across ever-routable replicas.
void SetFleetOutcome(ScenarioResult* result, const std::string& prefix,
                     const FleetMetrics& m) {
  for (const MetricKv& kv : ServeMetricsToKv(m.serve, prefix)) {
    result->values.push_back(kv);
  }
  result->Set(prefix + "imbalance", m.imbalance);
  result->Set(prefix + "router_decisions",
              static_cast<double>(m.router_decisions));
  result->Set(prefix + "scale_ups", m.scale_ups);
  result->Set(prefix + "scale_downs", m.scale_downs);
  result->Set(prefix + "min_routable", m.min_routable);
  result->Set(prefix + "max_routable", m.max_routable);
  result->Set(prefix + "mean_routable", m.mean_routable);
  result->Set(prefix + "timeline_events",
              static_cast<double>(m.replica_timeline.size()));

  int served = 0;
  int64_t completed_min = 0, completed_max = 0;
  for (int r = 0; r < m.max_routable; ++r) {
    const int64_t c = m.replica_completed[static_cast<size_t>(r)];
    if (r == 0) {
      completed_min = completed_max = c;
    } else {
      completed_min = std::min(completed_min, c);
      completed_max = std::max(completed_max, c);
    }
    served += c > 0 ? 1 : 0;
  }
  result->Set(prefix + "replicas_served", served);
  result->Set(prefix + "replica_completed_min",
              static_cast<double>(completed_min));
  result->Set(prefix + "replica_completed_max",
              static_cast<double>(completed_max));
}

// Compact replica-count timeline for the scenario notes (the full event list
// is in FleetMetrics; goldens pin the summary stats instead).
std::string TimelineNote(const FleetMetrics& m) {
  const auto& tl = m.replica_timeline;
  std::string s = "routable timeline:";
  const size_t show = std::min<size_t>(tl.size(), 12);
  for (size_t i = 0; i < show; ++i) {
    s += StrFormat(" %d@%.1fms", tl[i].second, ToMs(tl[i].first));
  }
  if (tl.size() > show) {
    s += StrFormat(" ... (%zu events)", tl.size());
  }
  return s;
}

// Serve-only autoscaled fleet under a diurnal envelope. Aggregate load is
// sized per replica, so the three fleet sizes stress the same per-device
// regime and the scenarios differ in control-plane dynamics, not saturation.
ScenarioResult RunFleetGrid(const ScenarioParams& params,
                            RoutingPolicy policy, int replicas) {
  ScenarioResult result;
  FleetConfig cfg = BaseFleetConfig(params, replicas, policy,
                                    /*horizon_ms=*/200.0);
  const double per_rps = params.GetDouble("per_replica_rps", 500.0);
  cfg.arrivals.kind = ArrivalKind::kPoisson;
  cfg.arrivals.rate_rps = per_rps * replicas;
  // Per-scenario seed: distinct deterministic traces across the grid.
  cfg.arrivals.seed = 0xF1EEDull * 1000003ull +
                      static_cast<uint64_t>(replicas) * 8ull +
                      static_cast<uint64_t>(policy);
  cfg.envelope = MakeDiurnalEnvelope(
      Ms(params.GetDouble("diurnal_period_ms", 100.0)), /*trough=*/0.5,
      /*peak=*/1.5, /*steps=*/8);
  cfg.autoscaler.min_replicas = std::max(1, replicas / 4);
  cfg.autoscaler.scale_up_depth = 6.0;
  cfg.autoscaler.scale_down_depth = 1.0;
  cfg.autoscaler.evaluate_every = Ms(1);
  cfg.autoscaler.cooldown = Ms(2);
  cfg.autoscaler.warmup = Ms(5);

  result.AddNote(StrFormat(
      "%d replicas (floor %d), %s routing, %.0f rps/replica diurnal x%.1f, "
      "horizon %.0f ms",
      replicas, cfg.autoscaler.min_replicas, RoutingPolicyName(policy),
      per_rps, 1.5, ToMs(cfg.horizon)));

  const FleetEngine engine(std::move(cfg));
  const FleetMetrics m = engine.RunServeOnly();
  result.AddNote(TimelineNote(m));
  SetFleetOutcome(&result, "", m);
  return result;
}

// Pinned 64-replica co-run fleet at a load point and at double that load.
// The ooo and baseline variants share arrival traces (seeds depend only on
// the load point), so their golden files differ only by the training
// schedule's effect on the serving tail.
ScenarioResult RunFleetCorun(const ScenarioParams& params, bool ooo) {
  ScenarioResult result;
  const int replicas = params.GetInt("replicas", 64);
  FleetConfig base = BaseFleetConfig(params, replicas,
                                     RoutingPolicy::kLeastLoaded,
                                     /*horizon_ms=*/250.0);
  base.autoscaler.min_replicas = replicas;  // min == max: fixed fleet

  const std::shared_ptr<const NnModel> train_model =
      CachedModel("resnet:L50:B32", [] { return ResNet(50, 32, 224); });
  const TrainGraph graph(train_model.get());
  const IterationSchedule schedule =
      ooo ? MakeOooSchedule(graph, base.gpu, base.profile).schedule
          : ConventionalIteration(graph);
  const TrainMetrics solo =
      SingleGpuEngine({base.gpu, base.profile, /*precompiled_issue=*/true})
          .Run(*train_model, schedule);
  result.SetMetrics("solo.", solo);
  const int cover = static_cast<int>(
      std::ceil(static_cast<double>(base.horizon) /
                static_cast<double>(solo.iteration_time)));
  const int train_iterations = std::max(3, cover + 2);

  const double per_rps = params.GetDouble("per_replica_rps", 30.0);
  result.AddNote(StrFormat(
      "%d replicas co-running %s (%s schedule, %d iterations); load points "
      "%.0f and %.0f rps/replica, horizon %.0f ms",
      replicas, train_model->name.c_str(), ooo ? "ooo" : "in-order",
      train_iterations, per_rps, 2 * per_rps, ToMs(base.horizon)));

  double p99[2] = {0, 0}, goodput[2] = {0, 0}, slo_att[2] = {0, 0};
  for (int point = 0; point < 2; ++point) {
    FleetConfig cfg = base;
    cfg.arrivals.kind = ArrivalKind::kPoisson;
    cfg.arrivals.rate_rps = per_rps * (point + 1) * replicas;
    cfg.arrivals.seed = 0xF1EECull * 1000003ull +
                        static_cast<uint64_t>(point);  // shared across ooo
    const FleetEngine engine(std::move(cfg));
    const FleetMetrics m = engine.RunCorun(*train_model, schedule,
                                           train_iterations);
    const std::string prefix = StrFormat("load%d.", point + 1);
    SetFleetOutcome(&result, prefix, m);
    result.SetMetrics(prefix + "train.", m.train);
    result.Set(prefix + "train_overhead",
               static_cast<double>(m.train.iteration_time) /
                   static_cast<double>(solo.iteration_time));
    result.Set(prefix + "train_iter_spread_ms",
               ToMs(m.train_iter_max - m.train_iter_min));
    p99[point] = ToMs(m.serve.p99_latency);
    goodput[point] = m.serve.goodput_rps;
    slo_att[point] = m.serve.slo_attainment;
  }

  // Headline indicators: tail growth and goodput scaling under the load
  // doubling (goodput_scaling == 2 means every extra request still lands
  // inside the SLO).
  result.Set("p99_growth", p99[0] > 0 ? p99[1] / p99[0] : 0.0);
  result.Set("goodput_scaling", goodput[0] > 0 ? goodput[1] / goodput[0]
                                               : 0.0);
  result.Set("slo_drop", slo_att[0] - slo_att[1]);
  return result;
}

}  // namespace

void RegisterFleetScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();

    const struct {
      RoutingPolicy policy;
      const char* tag;
    } kPolicies[] = {{RoutingPolicy::kRoundRobin, "rr"},
                     {RoutingPolicy::kLeastLoaded, "ll"},
                     {RoutingPolicy::kPowerOfTwo, "p2c"}};
    for (const auto& p : kPolicies) {
      for (const int replicas : {4, 16, 64}) {
        reg.Register(
            {StrFormat("fleet_%s_%d", p.tag, replicas), "Fleet",
             StrFormat("%d-replica autoscaled fleet, %s routing, diurnal "
                       "ResNet-50 serving",
                       replicas, p.tag),
             [policy = p.policy, replicas](const ScenarioParams& params) {
               return RunFleetGrid(params, policy, replicas);
             },
             "fleet"});
      }
    }

    reg.Register({"fleet_corun_baseline_64", "Fleet",
                  "64-replica fleet: ResNet-50 serving + in-order training, "
                  "load doubling",
                  [](const ScenarioParams& params) {
                    return RunFleetCorun(params, /*ooo=*/false);
                  },
                  "fleet", /*cost_hint=*/0.2});
    reg.Register({"fleet_corun_ooo_64", "Fleet",
                  "64-replica fleet: ResNet-50 serving + ooo-backprop "
                  "training, load doubling",
                  [](const ScenarioParams& params) {
                    return RunFleetCorun(params, /*ooo=*/true);
                  },
                  "fleet", /*cost_hint=*/0.25});
  });
}

}  // namespace oobp

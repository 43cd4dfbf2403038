#include "src/runner/cluster_scenarios.h"

#include <mutex>
#include <string>
#include <utility>

#include "src/common/str_util.h"
#include "src/nn/model_cache.h"
#include "src/nn/model_zoo.h"
#include "src/runner/registry.h"
#include "src/runtime/cluster_ps_engine.h"

namespace oobp {
namespace {

// 16 V100 workers training ResNet-50 through a parameter server over 10GbE
// (commodity Ethernet: gradient traffic is load-bearing, as in the paper's
// cluster evaluation).
// The straggler spread keeps the cluster mildly heterogeneous, so the
// server's all-arrived barrier is load-bearing in both orderings.
ScenarioResult RunClusterPs(const ScenarioParams& params, bool ooo) {
  ScenarioResult result;
  ClusterPsConfig cfg;
  cfg.gpu = GpuSpec::V100();
  cfg.profile = SystemProfile::TensorFlowXla();
  cfg.uplink = LinkSpec::Eth10G();
  cfg.downlink = LinkSpec::Eth10G();
  cfg.workers = params.GetInt("workers", 16);
  cfg.iterations = params.GetInt("iterations", 3);
  cfg.ooo = ooo;
  cfg.straggler_spread = params.GetDouble("straggler_spread", 0.15);
  cfg.reverse_k = params.GetInt("reverse_k", -1);

  const std::shared_ptr<const NnModel> model =
      CachedModel("resnet:L50:B32", [] { return ResNet(50, 32, 224); });
  result.AddNote(StrFormat(
      "%d workers x %s over %s, %d iterations, straggler spread %.2f, "
      "%s gradient order",
      cfg.workers, model->name.c_str(), cfg.uplink.name.c_str(),
      cfg.iterations, cfg.straggler_spread,
      ooo ? "reverse-first (ooo)" : "conventional"));

  const ClusterPsEngine engine(std::move(cfg));
  const ClusterPsMetrics m = engine.Run(*model);
  result.Set("iteration_time_ms", ToMs(m.iteration_time));
  result.Set("worker_iter_min_ms", ToMs(m.worker_iter_min));
  result.Set("worker_iter_max_ms", ToMs(m.worker_iter_max));
  result.Set("makespan_ms", ToMs(m.makespan));
  result.Set("sync_stall_frac", m.sync_stall_frac);
  result.Set("bytes_pushed_mb",
             static_cast<double>(m.bytes_pushed) / (1024.0 * 1024.0));
  result.Set("uplink_busy_frac", m.uplink_busy_frac);
  result.Set("slowest_factor", m.slowest_factor);
  result.Set("processed_events", static_cast<double>(m.processed_events));
  return result;
}

}  // namespace

void RegisterClusterScenarios() {
  static std::once_flag once;
  std::call_once(once, [] {
    ScenarioRegistry& reg = ScenarioRegistry::Global();
    reg.Register({"cluster_ps_conv_16", "Cluster",
                  "16-worker parameter server, conventional gradient order, "
                  "ResNet-50 over 10GbE",
                  [](const ScenarioParams& params) {
                    return RunClusterPs(params, /*ooo=*/false);
                  },
                  "cluster"});
    reg.Register({"cluster_ps_ooo_16", "Cluster",
                  "16-worker parameter server, reverse-first gradients with "
                  "priority links, ResNet-50 over 10GbE",
                  [](const ScenarioParams& params) {
                    return RunClusterPs(params, /*ooo=*/true);
                  },
                  "cluster"});
  });
}

}  // namespace oobp

#include "src/runtime/hybrid_engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/hw/observer.h"
#include "src/hw/link.h"
#include "src/sim/engine.h"

namespace oobp {

HybridEngine::HybridEngine(HybridConfig config) : config_(std::move(config)) {
  OOBP_CHECK_GE(config_.dp_groups, 1);
}

int64_t HybridEngine::SyncVolume(const NnModel& model, int layer) const {
  const int g = config_.dp_groups;
  if (g <= 1) {
    return 0;
  }
  const double factor = 2.0 * (g - 1) / g;  // ring all-reduce volume
  return static_cast<int64_t>(
      static_cast<double>(model.layers[layer].param_bytes) * factor);
}

double HybridEngine::ChannelBandwidthGbps() const {
  // Replicas of one stage sit in different nodes; the stage's gradient
  // exchange crosses the inter-node network, sharing the NIC with the other
  // stages co-located on the node (same duplex treatment as the
  // data-parallel engine).
  const ClusterSpec& cluster = config_.pipeline.cluster;
  constexpr double kDuplexFactor = 1.4;
  double bw = cluster.inter_node.bandwidth_gbps /
              std::max(1, cluster.gpus_per_node) * kDuplexFactor;
  if (cluster.switch_bandwidth_gbps > 0.0) {
    const int total = config_.dp_groups * config_.pipeline.num_gpus;
    bw = std::min(bw, cluster.switch_bandwidth_gbps / total * kDuplexFactor);
  }
  return bw;
}

HybridResult HybridEngine::Run(const NnModel& micro_model,
                               PipelineStrategy strategy) const {
  // Step 1: one replica's pipeline iteration.
  const PipelineEngine pipeline(config_.pipeline);
  const PipelineResult pipe = pipeline.Run(micro_model, strategy);
  const int L = micro_model.num_layers();

  HybridResult result;
  result.pipeline_makespan = pipe.metrics.iteration_time;
  result.total_gpus = config_.dp_groups * config_.pipeline.num_gpus;

  if (config_.dp_groups <= 1) {
    result.metrics = pipe.metrics;
    return result;
  }

  // Step 2: replay weight-gradient completions into per-stage channels.
  // sync_done[l] is when layer l's all-reduce finishes, measured on the
  // same clock as the pipeline timings.
  SimEngine engine;
  const bool labels = RunIsObserved();  // names only feed observers
  LinkSpec spec;
  spec.name = "dp-exchange";
  spec.bandwidth_gbps = ChannelBandwidthGbps();
  spec.latency = config_.pipeline.cluster.inter_node.latency;
  std::map<int, std::unique_ptr<Link>> stage_links;
  std::vector<TimeNs> sync_done(L, 0);

  for (int l = 0; l < L; ++l) {
    if (pipe.wgrad_done[l] < 0) {
      continue;  // no weights
    }
    const int64_t volume = SyncVolume(micro_model, l);
    if (volume <= 0) {
      sync_done[l] = pipe.wgrad_done[l];
      continue;
    }
    const int stage = pipe.assignment[l];
    auto it = stage_links.find(stage);
    if (it == stage_links.end()) {
      it = stage_links
               .emplace(stage, std::make_unique<Link>(
                                   &engine, spec, /*chunk_bytes=*/1 << 20,
                                   config_.commit_window_bytes))
               .first;
    }
    Link* link = it->second.get();
    // Submit at the gradient's completion time, partitioned, priority by
    // layer (the next forward needs low layers first).
    const int64_t part = config_.partition_bytes;
    const int parts = static_cast<int>((volume + part - 1) / part);
    auto remaining = std::make_shared<int>(parts);
    engine.ScheduleAt(pipe.wgrad_done[l], [=, &engine, &sync_done] {
      for (int p = 0; p < parts; ++p) {
        const int64_t bytes = std::min<int64_t>(part, volume - p * part);
        link->Transfer(bytes, l,
                       labels ? StrFormat("sync[%d].%d", l, p) : std::string(),
                       [=, &engine, &sync_done] {
                         if (--*remaining == 0) {
                           sync_done[l] = engine.now();
                         }
                       });
      }
    });
  }
  engine.Run();

  // Step 3: steady-state period. Layer l's next forward (at offset
  // fwd_start[l] into the next iteration) requires sync_done[l] <= period +
  // fwd_start[l].
  TimeNs period = result.pipeline_makespan;
  for (int l = 0; l < L; ++l) {
    if (pipe.wgrad_done[l] < 0 || sync_done[l] == 0) {
      continue;
    }
    const TimeNs fwd = pipe.fwd_start[l] >= 0 ? pipe.fwd_start[l] : 0;
    period = std::max(period, sync_done[l] - fwd);
  }
  result.exposed_sync = period - result.pipeline_makespan;

  result.metrics = pipe.metrics;
  result.metrics.iteration_time = period;
  result.metrics.throughput = static_cast<double>(micro_model.batch) *
                              config_.pipeline.num_micro_batches *
                              config_.dp_groups / ToSec(period);
  result.metrics.gpu_utilization =
      pipe.metrics.gpu_utilization *
      static_cast<double>(result.pipeline_makespan) / static_cast<double>(period);
  return result;
}

}  // namespace oobp

#include "src/serve/fleet_engine.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/core/memory_model.h"
#include "src/hw/cpu_launcher.h"
#include "src/hw/gpu.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/sim/engine.h"

namespace oobp {

namespace {

// Per-batch inference state on one replica: the requests it serves and its
// kernel span on that replica's inference stream.
struct Batch {
  std::vector<int64_t> requests;
  KernelId first = -1;
  KernelId last = -1;
};

// One replica: a GPU with the fixed three-stream layout, its dynamic
// batcher, and (co-run mode) its own CPU launcher replaying the training
// issue plan.
struct Replica {
  std::unique_ptr<Gpu> gpu;
  StreamId main_stream = 0;
  StreamId sub_stream = 0;
  StreamId serve_stream = 0;
  std::unique_ptr<DynamicBatcher> batcher;
  std::vector<Batch> batches;
  std::unordered_map<KernelId, size_t> last_kernel_to_batch;
  std::unique_ptr<CpuLauncher> launcher;
  std::vector<KernelId> item_kernel;
};

}  // namespace

FleetEngine::FleetEngine(FleetConfig config) : config_(std::move(config)) {
  OOBP_CHECK(config_.make_model != nullptr);
  OOBP_CHECK_GT(config_.horizon, 0);
  OOBP_CHECK_GT(config_.slo, 0);
  OOBP_CHECK_GE(config_.autoscaler.min_replicas, 1);
}

FleetMetrics FleetEngine::RunServeOnly() const {
  return RunImpl(nullptr, nullptr, 0);
}

FleetMetrics FleetEngine::RunCorun(const NnModel& train_model,
                                   const IterationSchedule& train_schedule,
                                   int train_iterations) const {
  OOBP_CHECK_GE(train_iterations, 2);
  return RunImpl(&train_model, &train_schedule, train_iterations);
}

FleetMetrics FleetEngine::RunImpl(const NnModel* train_model,
                                  const IterationSchedule* train_schedule,
                                  int train_iterations) const {
  const CostModel cost(config_.gpu, config_.profile);
  const int fleet_size = config_.autoscaler.max_replicas;

  // Inference kernel costs per batch size, shared by every replica (one
  // captured graph per bucket, identical models across the fleet).
  const int max_batch = config_.batcher.max_batch;
  std::vector<std::vector<KernelCost>> batch_costs(max_batch + 1);
  for (int b = 1; b <= max_batch; ++b) {
    const NnModel model = config_.make_model(b);
    batch_costs[b].reserve(model.layers.size());
    for (const Layer& layer : model.layers) {
      batch_costs[b].push_back(cost.Cost(layer, TrainOpType::kForward));
    }
  }

  // Training issue plan, also shared (same model/schedule on every replica;
  // stream ids match because every replica creates streams in the same
  // order).
  TrainIssuePlan plan;
  if (train_model != nullptr) {
    plan = BuildTrainIssuePlan(*train_model, *train_schedule, cost,
                               train_iterations, /*main_stream=*/0,
                               /*sub_stream=*/1, /*label_items=*/false);
  }

  // Every replica and the control plane (arrivals, router, autoscaler)
  // share one engine.
  SimEngine engine;

  std::vector<Replica> replicas(static_cast<size_t>(fleet_size));

  const std::vector<TimeNs> arrivals =
      GenerateTracedArrivals(config_.arrivals, config_.envelope,
                             config_.horizon);
  std::vector<RequestRecord> records(arrivals.size());
  std::vector<int> replica_of(arrivals.size(), -1);

  // Scenario hints pre-size the event storage: the whole arrival trace is
  // scheduled up front, and each replica keeps a small bounded set of
  // batcher/launcher/GPU events pending.
  engine.Reserve(arrivals.size() + 16 * static_cast<size_t>(fleet_size));

  for (int r = 0; r < fleet_size; ++r) {
    Replica& rep = replicas[static_cast<size_t>(r)];
    rep.gpu = std::make_unique<Gpu>(&engine, config_.gpu);
    // Stream creation order fixes ids 0/1/2 fleet-wide; priorities follow
    // serve_engine.h (training main 0, ooo sub 2, inference 1).
    rep.main_stream = rep.gpu->CreateStream(/*priority=*/0);
    rep.sub_stream = rep.gpu->CreateStream(/*priority=*/2);
    rep.serve_stream = rep.gpu->CreateStream(/*priority=*/1);

    rep.batcher = std::make_unique<DynamicBatcher>(
        &engine, config_.batcher, [&, r](const std::vector<int64_t>& ids) {
          Replica& self = replicas[static_cast<size_t>(r)];
          const size_t batch_index = self.batches.size();
          self.batches.push_back({});
          Batch& batch = self.batches.back();
          batch.requests = ids;
          const TimeNs now = engine.now();
          for (int64_t id : ids) {
            records[static_cast<size_t>(id)].dispatch = now;
            records[static_cast<size_t>(id)].batch_size =
                static_cast<int>(ids.size());
          }
          // Graph launch: one fixed host latency, then the whole per-layer
          // kernel sequence lands on this replica's inference stream.
          engine.ScheduleAfter(
              config_.profile.graph_launch_latency, [&, r, batch_index] {
                Replica& rr = replicas[static_cast<size_t>(r)];
                Batch& b = rr.batches[batch_index];
                const std::vector<KernelCost>& costs =
                    batch_costs[b.requests.size()];
                for (size_t l = 0; l < costs.size(); ++l) {
                  KernelDesc desc;
                  desc.solo_duration = costs[l].duration;
                  desc.thread_blocks = costs[l].thread_blocks;
                  const KernelId kid =
                      rr.gpu->Enqueue(rr.serve_stream, std::move(desc));
                  if (l == 0) {
                    b.first = kid;
                  }
                  b.last = kid;
                }
                rr.last_kernel_to_batch[b.last] = batch_index;
              });
        });

    rep.gpu->AddKernelDoneListener([&, r](KernelId id) {
      Replica& self = replicas[static_cast<size_t>(r)];
      const auto it = self.last_kernel_to_batch.find(id);
      if (it == self.last_kernel_to_batch.end()) {
        return;
      }
      const Batch& batch = self.batches[it->second];
      const TimeNs done = engine.now();
      const TimeNs exec_start = self.gpu->StartTime(batch.first);
      for (int64_t rid : batch.requests) {
        RequestRecord& rec = records[static_cast<size_t>(rid)];
        rec.exec_start = exec_start;
        rec.done = done;
      }
      self.batcher->OnBatchDone();
    });

    if (train_model != nullptr) {
      rep.launcher = std::make_unique<CpuLauncher>(
          &engine, rep.gpu.get(), CpuLauncher::Mode::kPrecompiled,
          config_.profile.graph_launch_latency);
      rep.item_kernel.assign(plan.items.size(), -1);
      rep.launcher->Launch(
          std::vector<IssueItem>(plan.items),
          [&, r](size_t index, KernelId id) {
            replicas[static_cast<size_t>(r)].item_kernel[index] = id;
          });
    }
  }

  // Cluster control plane: autoscaler over total queued requests, router
  // over per-replica backlog estimates (queued requests plus the in-flight
  // batches' worth of work still on the device). The autoscaler's depth
  // callback reads its own routable set, so it is built through a slot the
  // lambda captures; the callback only ever fires after construction.
  std::unique_ptr<Autoscaler> autoscaler;
  autoscaler =
      std::make_unique<Autoscaler>(&engine, config_.autoscaler, [&] {
        int64_t queued = 0;
        for (int r : autoscaler->routable_set()) {
          queued += replicas[static_cast<size_t>(r)].batcher->queue_depth();
        }
        return queued;
      });
  FleetRouter router(config_.router, [&](int r) {
    const DynamicBatcher& b = *replicas[static_cast<size_t>(r)].batcher;
    return static_cast<int64_t>(b.queue_depth()) +
           static_cast<int64_t>(b.inflight()) *
               static_cast<int64_t>(config_.batcher.max_batch);
  });

  for (size_t i = 0; i < arrivals.size(); ++i) {
    records[i].arrival = arrivals[i];
    engine.ScheduleAt(arrivals[i], [&, i] {
      const std::vector<int>& routable = autoscaler->routable_set();
      const int r = router.Route(routable);
      replica_of[i] = r;
      replicas[static_cast<size_t>(r)].batcher->OnRequest(
          static_cast<int64_t>(i));
    });
  }
  autoscaler->Start(config_.horizon);

  engine.Run();

  // -- Aggregate serving metrics -------------------------------------------
  FleetMetrics metrics;
  int64_t total_batches = 0;
  metrics.replica_completed.assign(static_cast<size_t>(fleet_size), 0);
  for (int r = 0; r < fleet_size; ++r) {
    const Replica& rep = replicas[static_cast<size_t>(r)];
    for (const Batch& batch : rep.batches) {
      if (batch.last >= 0 && rep.gpu->Done(batch.last)) {
        ++total_batches;
        metrics.replica_completed[static_cast<size_t>(r)] +=
            static_cast<int64_t>(batch.requests.size());
      }
    }
  }
  metrics.serve = ComputeServeMetrics(records, total_batches, config_.horizon,
                                      config_.slo);

  // Per-replica views (a replica with no completion keeps the kNoSample
  // percentile sentinel).
  metrics.per_replica.resize(static_cast<size_t>(fleet_size));
  {
    std::vector<RequestRecord> subset;
    for (int r = 0; r < fleet_size; ++r) {
      subset.clear();
      int64_t batches_r = 0;
      for (size_t i = 0; i < records.size(); ++i) {
        if (replica_of[i] == r) {
          subset.push_back(records[i]);
        }
      }
      const Replica& rep = replicas[static_cast<size_t>(r)];
      for (const Batch& batch : rep.batches) {
        if (batch.last >= 0 && rep.gpu->Done(batch.last)) {
          ++batches_r;
        }
      }
      metrics.per_replica[static_cast<size_t>(r)] = ComputeServeMetrics(
          subset, batches_r, config_.horizon, config_.slo);
    }
  }

  // Autoscaler outcome + time-weighted routable stats over [0, horizon].
  metrics.scale_ups = autoscaler->scale_ups();
  metrics.scale_downs = autoscaler->scale_downs();
  metrics.replica_timeline = autoscaler->timeline();
  metrics.router_decisions = router.decisions();
  {
    const auto& tl = metrics.replica_timeline;
    OOBP_CHECK(!tl.empty());
    metrics.min_routable = tl[0].second;
    metrics.max_routable = tl[0].second;
    double weighted = 0.0;
    for (size_t i = 0; i < tl.size(); ++i) {
      metrics.min_routable = std::min(metrics.min_routable, tl[i].second);
      metrics.max_routable = std::max(metrics.max_routable, tl[i].second);
      const TimeNs begin = std::min(tl[i].first, config_.horizon);
      const TimeNs end = i + 1 < tl.size()
                             ? std::min(tl[i + 1].first, config_.horizon)
                             : config_.horizon;
      weighted += static_cast<double>(end - begin) *
                  static_cast<double>(tl[i].second);
    }
    metrics.mean_routable = weighted / static_cast<double>(config_.horizon);
  }

  // Load imbalance: max / mean completions over replicas that were ever
  // routable. The autoscaler's up-set is always an index prefix, so
  // max_routable identifies exactly which replicas ever served.
  {
    int64_t max_completed = 0, sum_completed = 0;
    const int ever = metrics.max_routable;
    for (int r = 0; r < ever; ++r) {
      const int64_t c = metrics.replica_completed[static_cast<size_t>(r)];
      max_completed = std::max(max_completed, c);
      sum_completed += c;
    }
    if (ever > 0 && sum_completed > 0) {
      metrics.imbalance = static_cast<double>(max_completed) * ever /
                          static_cast<double>(sum_completed);
    }
  }

  // -- Training metrics (co-run mode) --------------------------------------
  if (train_model != nullptr) {
    const int measured = train_iterations - 1;  // 1 warm-up
    TimeNs sum_iter = 0;
    TimeNs min_iter = 0, max_iter = 0;
    double sum_util = 0.0;
    const double capacity = static_cast<double>(config_.gpu.slot_capacity());
    for (int r = 0; r < fleet_size; ++r) {
      const Replica& rep = replicas[static_cast<size_t>(r)];
      const std::vector<TimeNs> iter_end = TrainIterationEndTimes(
          *rep.gpu, rep.item_kernel, plan.iter_last_item);
      const TimeNs window = iter_end[train_iterations - 1] - iter_end[0];
      const TimeNs iter = window / measured;
      sum_iter += iter;
      if (r == 0) {
        min_iter = max_iter = iter;
      } else {
        min_iter = std::min(min_iter, iter);
        max_iter = std::max(max_iter, iter);
      }
      if (window > 0) {
        sum_util += rep.gpu->SmBusyIntegral() /
                    (capacity *
                     static_cast<double>(iter_end[train_iterations - 1]));
      }
    }
    TrainMetrics& train = metrics.train;
    train.iteration_time = sum_iter / fleet_size;
    train.throughput = static_cast<double>(train_model->batch) /
                       ToSec(train.iteration_time);
    train.gpu_utilization = sum_util / fleet_size;
    const MemoryTimeline mem =
        EstimateBackpropMemory(*train_model, train_schedule->MergedOrder());
    train.peak_memory_bytes =
        static_cast<int64_t>(static_cast<double>(mem.peak_total()) *
                             config_.profile.allocator_overhead);
    train.oom = train.peak_memory_bytes > config_.gpu.mem_bytes;
    metrics.train_iter_min = min_iter;
    metrics.train_iter_max = max_iter;
  }

  return metrics;
}

}  // namespace oobp

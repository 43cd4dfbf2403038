#include "src/validate/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/core/memory_model.h"
#include "src/core/region.h"
#include "src/core/reverse_k.h"
#include "src/core/schedule.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/runner/glob.h"
#include "src/runtime/data_parallel_engine.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/serve/fleet_engine.h"
#include "src/serve/serve_engine.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/sim/engine.h"
#include "src/sim/worker_pool.h"
#include "src/validate/schedule_checker.h"
#include "src/validate/sim_validator.h"

namespace oobp {

namespace {

GpuSpec RandomGpuSpec(Rng& rng) {
  GpuSpec spec;
  spec.name = "fuzz-gpu";
  spec.num_sms = 16 + static_cast<int>(rng.NextBelow(81));        // 16..96
  spec.blocks_per_sm = 4 + static_cast<int>(rng.NextBelow(29));   // 4..32
  spec.fp32_tflops = rng.Uniform(4.0, 20.0);
  spec.mem_bandwidth_gbps = rng.Uniform(200.0, 1000.0);
  spec.mem_bytes = int64_t{16} << 30;
  spec.kernel_exec_overhead = static_cast<TimeNs>(rng.NextBelow(2001));
  return spec;
}

SystemProfile RandomProfile(Rng& rng) {
  SystemProfile profile = SystemProfile::TensorFlowXla();
  profile.compute_efficiency = rng.Uniform(0.3, 0.6);
  profile.mem_efficiency = rng.Uniform(0.5, 0.9);
  profile.issue_latency_per_op = Us(rng.Uniform(5.0, 25.0));
  profile.graph_launch_latency = Us(rng.Uniform(2.0, 10.0));
  profile.issue_queue_depth = 4 + static_cast<int>(rng.NextBelow(29));
  return profile;
}

// A random small model from the layer-builder zoo. Layer shapes need not
// chain (the scheduler and simulator consume per-layer costs only), so each
// layer draws independent dimensions for diversity. Consecutive layers share
// block names in groups of 2-4, which is what region splitting keys on.
NnModel RandomModel(Rng& rng) {
  NnModel model;
  model.name = "fuzz-model";
  model.batch = 8 << rng.NextBelow(4);  // 8, 16, 32, 64
  const int L = 3 + static_cast<int>(rng.NextBelow(9));  // 3..11 layers
  int block = 0;
  int in_block = 0;
  int block_len = 2 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < L; ++i) {
    if (in_block >= block_len) {
      ++block;
      in_block = 0;
      block_len = 2 + static_cast<int>(rng.NextBelow(3));
    }
    ++in_block;
    const std::string name = StrFormat("l%d", i);
    const std::string blk = StrFormat("block%d", block);
    int kind = static_cast<int>(rng.NextBelow(6));
    const int c = 8 << rng.NextBelow(3);   // 8, 16, 32 channels
    const int hw = 8 << rng.NextBelow(2);  // 8, 16 spatial
    switch (kind) {
      case 0:
      case 1:
        model.layers.push_back(MakeConv2d(
            name, blk, model.batch, c, hw, hw,
            8 + static_cast<int>(rng.NextBelow(33)),
            rng.NextBelow(2) == 0 ? 1 : 3, 1 + static_cast<int>(rng.NextBelow(2))));
        break;
      case 2:
        model.layers.push_back(MakePool(name, blk, model.batch, c, hw, hw));
        break;
      case 3:
        model.layers.push_back(MakeDense(
            name, blk, model.batch, 1 + static_cast<int>(rng.NextBelow(8)),
            64 << rng.NextBelow(3), 64 << rng.NextBelow(3)));
        break;
      case 4:
        model.layers.push_back(MakeTransformerLayer(
            name, blk, model.batch, 16 << rng.NextBelow(2),
            64 << rng.NextBelow(2), 4));
        break;
      default:
        model.layers.push_back(MakeLstmCell(
            name, blk, model.batch, 4 + static_cast<int>(rng.NextBelow(13)),
            64 << rng.NextBelow(2), 64 << rng.NextBelow(2)));
        break;
    }
  }
  // The scheduling problem is only interesting with at least one weight
  // gradient; replace the last layer if the draw produced none.
  bool any_params = false;
  for (const Layer& layer : model.layers) {
    any_params = any_params || layer.has_params();
  }
  if (!any_params) {
    model.layers.back() =
        MakeConv2d(StrFormat("l%d", L - 1), StrFormat("block%d", block),
                   model.batch, 16, 8, 8, 16, 3, 1);
  }
  return model;
}

// ---------------------------------------------------------------------------
// Metamorphic kernel-DAG checks on the raw Gpu model.

struct DagKernel {
  int stream = 0;
  TimeNs duration = 0;
  double blocks = 1.0;
  std::vector<int> deps;  // indices of earlier kernels
};

struct Dag {
  GpuSpec spec;  // kernel_exec_overhead == 0 (it does not scale with k)
  std::vector<int> stream_priority;
  std::vector<DagKernel> kernels;
};

Dag RandomDag(Rng& rng) {
  Dag dag;
  dag.spec.name = "dag-gpu";
  dag.spec.num_sms = 8 + static_cast<int>(rng.NextBelow(25));
  dag.spec.blocks_per_sm = 4 + static_cast<int>(rng.NextBelow(9));
  dag.spec.fp32_tflops = 10.0;
  dag.spec.mem_bandwidth_gbps = 500.0;
  dag.spec.mem_bytes = int64_t{16} << 30;
  dag.spec.kernel_exec_overhead = 0;

  const int num_streams = 1 + static_cast<int>(rng.NextBelow(4));
  for (int s = 0; s < num_streams; ++s) {
    dag.stream_priority.push_back(static_cast<int>(rng.NextBelow(4)));
  }
  const int K = 8 + static_cast<int>(rng.NextBelow(33));  // 8..40 kernels
  const uint64_t capacity = static_cast<uint64_t>(dag.spec.slot_capacity());
  for (int i = 0; i < K; ++i) {
    DagKernel k;
    k.stream = static_cast<int>(rng.NextBelow(num_streams));
    k.duration = 100 + static_cast<TimeNs>(rng.NextBelow(9901));
    // Capped at device capacity so capacity *additions* leave every kernel's
    // max rate unchanged (the wave model is monotone, but equal rates make
    // the makespan-monotonicity property exact rather than asymptotic).
    k.blocks = static_cast<double>(1 + rng.NextBelow(capacity));
    if (i > 0) {
      const int num_deps = static_cast<int>(rng.NextBelow(3));  // 0..2
      for (int d = 0; d < num_deps; ++d) {
        k.deps.push_back(static_cast<int>(rng.NextBelow(
            static_cast<uint64_t>(i))));
      }
    }
    dag.kernels.push_back(std::move(k));
  }
  return dag;
}

// Simulates the DAG (all kernels enqueued at t=0, stream FIFO + deps order
// execution) and returns the makespan. `duration_scale` multiplies every
// solo duration; `extra_blocks_per_sm` adds SM capacity.
TimeNs RunDag(const Dag& dag, int64_t duration_scale, int extra_blocks_per_sm,
              SimValidator* validator) {
  SimEngine engine;
  const ObserverScope scope(validator);
  GpuSpec spec = dag.spec;
  spec.blocks_per_sm += extra_blocks_per_sm;
  Gpu gpu(&engine, spec);
  for (int priority : dag.stream_priority) {
    gpu.CreateStream(priority);
  }
  std::vector<KernelId> ids;
  ids.reserve(dag.kernels.size());
  for (const DagKernel& k : dag.kernels) {
    KernelDesc desc;
    desc.solo_duration = k.duration * duration_scale;
    desc.thread_blocks = k.blocks;
    for (int dep : k.deps) {
      desc.deps.push_back(ids[static_cast<size_t>(dep)]);
    }
    ids.push_back(gpu.Enqueue(k.stream, std::move(desc)));
  }
  engine.Run();
  TimeNs makespan = 0;
  for (KernelId id : ids) {
    makespan = std::max(makespan, gpu.CompletionTime(id));
  }
  return makespan;
}

// Reference makespan for the uncontended case (capacity >= sum of all
// thread blocks, zero exec overhead): every kernel runs at its max rate for
// exactly its solo duration, so completion times follow from a longest-path
// DP over stream order and dependencies — no fluid sharing involved.
TimeNs CriticalPathMakespan(const Dag& dag) {
  std::vector<TimeNs> finish(dag.kernels.size(), 0);
  std::vector<TimeNs> stream_tail(dag.stream_priority.size(), 0);
  for (size_t i = 0; i < dag.kernels.size(); ++i) {
    const DagKernel& k = dag.kernels[i];
    TimeNs start = stream_tail[static_cast<size_t>(k.stream)];
    for (int dep : k.deps) {
      start = std::max(start, finish[static_cast<size_t>(dep)]);
    }
    finish[i] = start + k.duration;
    stream_tail[static_cast<size_t>(k.stream)] = finish[i];
  }
  TimeNs makespan = 0;
  for (TimeNs f : finish) {
    makespan = std::max(makespan, f);
  }
  return makespan;
}

void MetamorphicDagChecks(Rng& rng, uint64_t seed,
                          std::vector<std::string>* errors) {
  const Dag dag = RandomDag(rng);
  const TimeNs K = static_cast<TimeNs>(dag.kernels.size());

  SimValidator validator;
  const TimeNs base = RunDag(dag, 1, 0, &validator);
  if (!validator.ok()) {
    errors->push_back(StrFormat("seed %llu: dag run: %s",
                                static_cast<unsigned long long>(seed),
                                validator.Summary().c_str()));
  }

  // Scaling all kernel costs by k scales the makespan by ~k. The fluid
  // processor rounds each completion up to integer ns, so each of the K
  // completions can drift by <= 1 ns in either run; k*K + K bounds the
  // accumulated divergence.
  const int64_t k = 2 + static_cast<int64_t>(rng.NextBelow(4));  // 2..5
  const TimeNs scaled = RunDag(dag, k, 0, nullptr);
  const TimeNs scale_tol = K * (k + 1) + 8;
  if (std::llabs(scaled - k * base) > scale_tol) {
    errors->push_back(StrFormat(
        "seed %llu: scaling durations x%lld changed makespan %lld -> %lld "
        "(expected ~%lld, tol %lld)",
        static_cast<unsigned long long>(seed), static_cast<long long>(k),
        static_cast<long long>(base), static_cast<long long>(scaled),
        static_cast<long long>(k * base), static_cast<long long>(scale_tol)));
  }

  // Adding SM capacity never increases the makespan (2K ns slack for the
  // integer rounding of each run).
  const TimeNs wider = RunDag(dag, 1, dag.spec.blocks_per_sm, nullptr);
  if (wider > base + 2 * K + 8) {
    errors->push_back(StrFormat(
        "seed %llu: doubling SM capacity increased makespan %lld -> %lld",
        static_cast<unsigned long long>(seed), static_cast<long long>(base),
        static_cast<long long>(wider)));
  }

  // With capacity >= total thread blocks there is no contention at all and
  // the makespan must equal the longest-path reference exactly.
  double total_blocks = 0.0;
  for (const DagKernel& kern : dag.kernels) {
    total_blocks += kern.blocks;
  }
  Dag wide = dag;
  wide.spec.num_sms = static_cast<int>(total_blocks) + 1;
  wide.spec.blocks_per_sm = 1;
  // Keep each kernel's max rate equal to its block count (blocks <= new
  // capacity holds by construction).
  const TimeNs uncontended = RunDag(wide, 1, 0, nullptr);
  const TimeNs reference = CriticalPathMakespan(dag);
  if (uncontended != reference) {
    errors->push_back(StrFormat(
        "seed %llu: uncontended makespan %lld != critical-path reference "
        "%lld",
        static_cast<unsigned long long>(seed),
        static_cast<long long>(uncontended),
        static_cast<long long>(reference)));
  }
}

// ---------------------------------------------------------------------------
// Link fuzz: random transfers at random times under the validator, then the
// same transfers at one priority, where the link must act as a FIFO whose
// completion times have a closed form.

struct FuzzTransfer {
  int64_t bytes = 0;
  int priority = 0;
  TimeNs at = 0;
};

// Completion times of `transfers` on a FIFO link: in (submit time, list
// index) order, each message starts when it is submitted or when the one
// before it is done, pays the latency once, then sends its chunks back to
// back.
std::vector<TimeNs> FifoCompletionTimes(
    const Link& link, int64_t chunk,
    const std::vector<FuzzTransfer>& transfers) {
  std::vector<size_t> order(transfers.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return transfers[a].at < transfers[b].at;
  });
  std::vector<TimeNs> done(transfers.size());
  TimeNs prev = 0;
  for (size_t i : order) {
    TimeNs t = std::max(transfers[i].at, prev) + link.spec().latency;
    for (int64_t left = transfers[i].bytes; left > 0; left -= chunk) {
      t += link.SerializationTime(std::min(chunk, left));
    }
    done[i] = prev = t;
  }
  return done;
}

void LinkFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  LinkSpec spec;
  spec.name = "fuzz-link";
  spec.bandwidth_gbps = rng.Uniform(1.0, 50.0);
  spec.latency = static_cast<TimeNs>(rng.NextBelow(25001));
  const int64_t chunk = int64_t{1} << (14 + rng.NextBelow(7));  // 16K..1M
  const int64_t window =
      rng.NextBelow(2) == 0 ? 0 : int64_t{1} << (16 + rng.NextBelow(6));
  std::vector<FuzzTransfer> transfers(4 + rng.NextBelow(17));  // 4..20
  for (FuzzTransfer& t : transfers) {
    t.bytes = 1 + static_cast<int64_t>(rng.NextBelow(1 << 22));
    t.priority = static_cast<int>(rng.NextBelow(4));
    t.at = static_cast<TimeNs>(rng.NextBelow(Ms(1)));
  }

  // Runs the list on a fresh link under the validator and returns each
  // transfer's completion time (-1 if it never completed). With `fifo` set,
  // every transfer runs at priority 0 and `fifo` receives the reference.
  auto run = [&](const char* what, std::vector<TimeNs>* fifo) {
    std::vector<TimeNs> done(transfers.size(), -1);
    SimValidator validator;
    {
      ObserverScope scope(&validator);
      SimEngine engine;
      Link link(&engine, spec, chunk, window);
      for (size_t i = 0; i < transfers.size(); ++i) {
        const int64_t bytes = transfers[i].bytes;
        const int priority = fifo != nullptr ? 0 : transfers[i].priority;
        engine.ScheduleAt(transfers[i].at, [&, i, bytes, priority] {
          link.Transfer(bytes, priority, "t",
                        [&, i] { done[i] = engine.now(); });
        });
      }
      engine.Run();
      if (fifo != nullptr) {
        *fifo = FifoCompletionTimes(link, chunk, transfers);
      }
    }
    const auto drained = std::count_if(done.begin(), done.end(),
                                       [](TimeNs t) { return t >= 0; });
    if (drained != static_cast<int64_t>(transfers.size())) {
      errors->push_back(StrFormat(
          "seed %llu: %s link drained %lld of %zu transfers",
          static_cast<unsigned long long>(seed), what,
          static_cast<long long>(drained), transfers.size()));
    }
    if (!validator.ok()) {
      errors->push_back(StrFormat("seed %llu: %s link fuzz: %s",
                                  static_cast<unsigned long long>(seed), what,
                                  validator.Summary().c_str()));
    }
    return done;
  };

  run("mixed-priority", nullptr);
  std::vector<TimeNs> fifo;
  const std::vector<TimeNs> done = run("one-priority", &fifo);
  for (size_t i = 0; i < transfers.size(); ++i) {
    if (done[i] != fifo[i]) {
      errors->push_back(StrFormat(
          "seed %llu: one-priority link (window %lld): transfer %zu done at "
          "%lld, FIFO reference %lld",
          static_cast<unsigned long long>(seed), static_cast<long long>(window),
          i, static_cast<long long>(done[i]),
          static_cast<long long>(fifo[i])));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Serve-subsystem fuzz.

// The three-layer inference model of the serve and fleet families.
NnModel FuzzInferModel(int batch) {
  NnModel m;
  m.name = "fuzz-infer";
  m.batch = batch;
  m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
  m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
  m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
  return m;
}

// Sanity checks shared by every serving run: no more completions than
// requests, monotone latency percentiles, SLO attainment in [0, 1], goodput
// within the completion rate, and a mean batch within `max_batch`.
void ServeSanity(const ServeMetrics& m, int max_batch, const char* what,
                 const std::function<void(std::string)>& fail) {
  if (m.num_completed > m.num_requests) {
    fail(StrFormat("%s: completed %lld > offered %lld", what,
                   static_cast<long long>(m.num_completed),
                   static_cast<long long>(m.num_requests)));
  }
  if (m.num_completed > 0 &&
      !(m.p50_latency <= m.p95_latency && m.p95_latency <= m.p99_latency &&
        m.p99_latency <= m.max_latency)) {
    fail(StrFormat("%s: percentiles not monotone: p50=%lld p95=%lld "
                   "p99=%lld max=%lld",
                   what, static_cast<long long>(m.p50_latency),
                   static_cast<long long>(m.p95_latency),
                   static_cast<long long>(m.p99_latency),
                   static_cast<long long>(m.max_latency)));
  }
  if (m.slo_attainment < 0.0 || m.slo_attainment > 1.0) {
    fail(StrFormat("%s: slo_attainment %.6f outside [0, 1]", what,
                   m.slo_attainment));
  }
  if (m.goodput_rps > m.completed_rps * (1.0 + 1e-9) + 1e-9) {
    fail(StrFormat("%s: goodput %.3f rps exceeds completion rate %.3f rps",
                   what, m.goodput_rps, m.completed_rps));
  }
  if (m.mean_batch_size > static_cast<double>(max_batch) + 1e-9) {
    fail(StrFormat("%s: mean batch %.3f exceeds max_batch %d", what,
                   m.mean_batch_size, max_batch));
  }
}

void ServeFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: serve fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };
  ServeConfig cfg;
  cfg.gpu = RandomGpuSpec(rng);
  cfg.profile = RandomProfile(rng);
  cfg.arrivals.kind =
      rng.NextBelow(2) == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  cfg.arrivals.rate_rps = rng.Uniform(200.0, 3000.0);
  cfg.arrivals.seed = seed * 2 + 17;
  cfg.batcher.max_batch = 1 + static_cast<int>(rng.NextBelow(8));
  cfg.batcher.max_queue_delay = Us(rng.Uniform(200.0, 2000.0));
  cfg.batcher.max_inflight = 1 + static_cast<int>(rng.NextBelow(2));
  cfg.horizon = Ms(10.0 + static_cast<double>(rng.NextBelow(21)));
  cfg.slo = Ms(5.0 + static_cast<double>(rng.NextBelow(16)));
  cfg.make_model = FuzzInferModel;

  ServeEngine serve(cfg);
  SimValidator validator;
  ServeMetrics m;
  {
    ObserverScope scope(&validator);
    m = serve.RunServeOnly();
  }
  if (!validator.ok()) {
    fail(validator.Summary());
  }
  ServeSanity(m, cfg.batcher.max_batch, "serve-only run", fail);
}

// ---------------------------------------------------------------------------
// Fleet fuzz: random multi-replica fleets (router + autoscaler) under the
// validator, with a metamorphic routing property.

void FleetFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: fleet fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };

  FleetConfig base;
  base.gpu = RandomGpuSpec(rng);
  base.profile = RandomProfile(rng);
  base.arrivals.kind =
      rng.NextBelow(2) == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  base.arrivals.rate_rps = rng.Uniform(200.0, 2000.0);
  base.arrivals.seed = seed * 2 + 29;
  // Single-request batches isolate queueing from batch-fill deadlines: with
  // max_batch > 1 an extra replica can slow batch filling and legitimately
  // raise the mean delay, which would void the metamorphic property below.
  base.batcher.max_batch = 1;
  base.batcher.max_queue_delay = Us(500.0);
  base.batcher.max_inflight = 1;
  base.horizon = Ms(10.0 + static_cast<double>(rng.NextBelow(11)));
  base.slo = Ms(5.0 + static_cast<double>(rng.NextBelow(16)));
  base.router.seed = seed * 3 + 7;
  const uint64_t policy_draw = rng.NextBelow(3);
  base.router.policy = policy_draw == 0   ? RoutingPolicy::kRoundRobin
                       : policy_draw == 1 ? RoutingPolicy::kLeastLoaded
                                          : RoutingPolicy::kPowerOfTwo;
  // A bursty diurnal envelope on half the fleets.
  if (rng.NextBelow(2) == 0) {
    base.envelope = MakeDiurnalEnvelope(
        Ms(4.0 + static_cast<double>(rng.NextBelow(5))),
        rng.Uniform(0.3, 0.8), rng.Uniform(1.2, 2.0), /*steps=*/4);
  }
  base.make_model = FuzzInferModel;

  const int R = 1 + static_cast<int>(rng.NextBelow(3));  // 1..3

  const auto run_fixed = [&base](int replicas, SimValidator* validator) {
    FleetConfig cfg = base;
    cfg.autoscaler.min_replicas = replicas;
    cfg.autoscaler.max_replicas = replicas;
    const FleetEngine engine(std::move(cfg));
    ObserverScope scope(validator);
    return engine.RunServeOnly();
  };

  SimValidator v_small, v_big;
  const FleetMetrics small = run_fixed(R, &v_small);
  const FleetMetrics big = run_fixed(R + 1, &v_big);
  if (!v_small.ok()) {
    fail(StrFormat("%d-replica run: %s", R, v_small.Summary().c_str()));
  }
  if (!v_big.ok()) {
    fail(StrFormat("%d-replica run: %s", R + 1, v_big.Summary().c_str()));
  }
  ServeSanity(small.serve, base.batcher.max_batch, "fixed fleet", fail);
  ServeSanity(big.serve, base.batcher.max_batch, "fixed fleet+1", fail);

  // Metamorphic: same trace, one more replica, single-request batches ->
  // the mean queueing delay never worsens. Power-of-two-choices redraws its
  // candidate pairs when the fleet grows, so it only gets the coverage runs.
  if (base.router.policy != RoutingPolicy::kPowerOfTwo &&
      big.serve.mean_queue_delay_ms >
          small.serve.mean_queue_delay_ms + 1e-6) {
    fail(StrFormat("adding a replica (%d -> %d, %s) worsened mean queue "
                   "delay %.6f -> %.6f ms",
                   R, R + 1, RoutingPolicyName(base.router.policy),
                   small.serve.mean_queue_delay_ms,
                   big.serve.mean_queue_delay_ms));
  }

  // Autoscaled coverage run: random thresholds, cooldown and warm-up over
  // the full replica range.
  FleetConfig cfg = std::move(base);
  cfg.arrivals.seed = seed * 2 + 31;
  cfg.autoscaler.min_replicas = 1;
  cfg.autoscaler.max_replicas = R + 1;
  cfg.autoscaler.scale_up_depth = rng.Uniform(2.0, 10.0);
  cfg.autoscaler.scale_down_depth = rng.Uniform(0.2, 1.5);
  cfg.autoscaler.evaluate_every = Us(rng.Uniform(200.0, 1000.0));
  cfg.autoscaler.cooldown = Us(rng.Uniform(0.0, 2000.0));
  cfg.autoscaler.warmup = Us(rng.Uniform(0.0, 2000.0));
  SimValidator v_scaled;
  FleetMetrics scaled;
  {
    const FleetEngine engine(std::move(cfg));
    ObserverScope scope(&v_scaled);
    scaled = engine.RunServeOnly();
  }
  if (!v_scaled.ok()) {
    fail("autoscaled run: " + v_scaled.Summary());
  }
  ServeSanity(scaled.serve, cfg.batcher.max_batch, "autoscaled fleet",
              fail);
  if (scaled.min_routable < 1 || scaled.max_routable > R + 1) {
    fail(StrFormat("routable range [%d, %d] outside [1, %d]",
                   scaled.min_routable, scaled.max_routable, R + 1));
  }
  // Reaching a peak of M routable replicas from a floor of 1 takes at least
  // M - 1 scale-ups (each action moves the fleet by one).
  if (scaled.scale_ups < scaled.max_routable - 1) {
    fail(StrFormat("peak %d routable with only %d scale-ups",
                   scaled.max_routable, scaled.scale_ups));
  }
}

// ---------------------------------------------------------------------------
// Search-based scheduler baseline (src/search): machine-verified schedules,
// never-worse-than-in-order, Tier-B scores, determinism, thread-count and
// beam monotonicity, the scorer against the event path along a mutation
// walk, and a differential searched-vs-MakeOooSchedule run under the
// SimValidator.

void SearchFuzz(Rng& rng, uint64_t seed, std::vector<std::string>* errors) {
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(StrFormat("seed %llu: search fuzz: ",
                                static_cast<unsigned long long>(seed)) +
                      std::move(msg));
  };

  const GpuSpec gpu = RandomGpuSpec(rng);
  const SystemProfile profile = RandomProfile(rng);
  const NnModel model = RandomModel(rng);
  const TrainGraph graph(&model);

  SearchOptions options;
  options.beam = 1 + static_cast<int>(rng.NextBelow(2));      // 1 or 2
  options.seed = rng.NextU64();
  options.budget = 8 + static_cast<int>(rng.NextBelow(9));    // 8..16

  const SearchResult searched = SearchSchedule(graph, gpu, profile, options);

  // Every emitted schedule must pass the full checker gate.
  const ScheduleCheckReport check =
      CheckIterationSchedule(graph, searched.schedule);
  if (!check.ok()) {
    fail("searched schedule: " + check.ToString());
  }

  // The search can never lose to its own starting point.
  if (searched.best_time > searched.conventional_time) {
    fail(StrFormat("searched time %lld worse than conventional %lld",
                   static_cast<long long>(searched.best_time),
                   static_cast<long long>(searched.conventional_time)));
  }

  // Only Tier-B simulator scores escape a trajectory: a fresh simulator
  // evaluator must reproduce best_time bit for bit.
  ScheduleEvaluator sim(&model, gpu, profile);
  const TimeNs rescored = sim.IterationTime(searched.schedule);
  if (rescored != searched.best_time) {
    fail(StrFormat("best_time %lld is not the simulator score %lld of its "
                   "schedule",
                   static_cast<long long>(searched.best_time),
                   static_cast<long long>(rescored)));
  }

  // Determinism: identical options reproduce the schedule, the score and
  // every pipeline counter, and so does a run on three worker threads.
  auto same_run = [&](const SearchResult& other) {
    const SearchStats& a = other.stats;
    const SearchStats& b = searched.stats;
    return other.schedule.ToString() == searched.schedule.ToString() &&
           other.best_time == searched.best_time &&
           a.sim_evals == b.sim_evals &&
           a.analytic_evals == b.analytic_evals &&
           a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
           a.memory_rejections == b.memory_rejections;
  };
  if (!same_run(SearchSchedule(graph, gpu, profile, options))) {
    fail("rerun diverged (schedule, score, or pipeline stats)");
  }
  SearchOptions threaded = options;
  threaded.threads = 3;
  if (!same_run(SearchSchedule(graph, gpu, profile, threaded))) {
    fail("run at threads=3 diverged from threads=1");
  }

  // Metamorphic: enlarging the beam never worsens the best score (the
  // portfolio with beam B+1 evaluates a superset of beam B's candidates).
  SearchOptions wider = options;
  wider.beam = options.beam + 1;
  const SearchResult wide = SearchSchedule(graph, gpu, profile, wider);
  if (wide.best_time > searched.best_time) {
    fail(StrFormat("beam %d best %lld worse than beam %d best %lld",
                   wider.beam, static_cast<long long>(wide.best_time),
                   options.beam, static_cast<long long>(searched.best_time)));
  }

  // The scorer against the event path: one warm scorer walks through
  // single-gene mutations of the searched genotype, as the search does, and
  // must match ScheduleEvaluator under a validator, which runs the event
  // simulation, to the bit at every step. The walk draws from its own Rng so
  // the draws above stay put.
  Rng walk_rng(seed * 0x9E3779B97F4A7C15ULL + 0x7A1C);
  FastScheduleEvaluator fast(&model, gpu, profile);
  Genotype walk = searched.genotype;
  constexpr int kWalkSteps = 8;
  for (int step = 0; step <= kWalkSteps && !walk.empty(); ++step) {
    if (step > 0) {
      WgradGene& gene = walk[walk_rng.NextBelow(walk.size())];
      const int lo = MinSlot(graph, gene.layer);
      gene.slot = lo + static_cast<int>(walk_rng.NextBelow(
                           static_cast<uint64_t>(MaxSlot(graph, gene.layer) -
                                                 lo + 1)));
      gene.stream = walk_rng.NextBelow(2) == 0 ? kMainStream : kSubStream;
    }
    const IterationSchedule schedule = DecodeGenotype(graph, walk);
    const TimeNs scored = fast.IterationTime(schedule);
    SimValidator walk_validator;
    TimeNs simulated = 0;
    {
      ObserverScope scope(&walk_validator);
      simulated = sim.IterationTime(schedule);
    }
    if (!walk_validator.ok()) {
      fail(StrFormat("walk step %d: %s", step,
                     walk_validator.Summary().c_str()));
      break;
    }
    if (scored != simulated) {
      fail(StrFormat("walk step %d: scorer %lld ns, event path %lld ns",
                     step, static_cast<long long>(scored),
                     static_cast<long long>(simulated)));
      break;
    }
  }

  // Differential execution: searched vs MakeOooSchedule end to end under
  // the invariant validator — both are dependency-true permutations, so
  // both must run clean.
  const JointScheduleResult ooo = MakeOooSchedule(graph, gpu, profile);
  SimValidator validator;
  TrainMetrics searched_metrics;
  TrainMetrics ooo_metrics;
  {
    ObserverScope scope(&validator);
    SingleGpuConfig cfg;
    cfg.gpu = gpu;
    cfg.profile = profile;
    cfg.precompiled_issue = true;
    cfg.measured_iterations = 2;
    const SingleGpuEngine engine(cfg);
    searched_metrics = engine.Run(model, searched.schedule);
    ooo_metrics = engine.Run(model, ooo.schedule);
  }
  if (!validator.ok()) {
    fail("differential run: " + validator.Summary());
  }
  if (searched_metrics.iteration_time <= 0 || ooo_metrics.iteration_time <= 0) {
    fail(StrFormat("non-positive iteration time (searched %lld, ooo %lld)",
                   static_cast<long long>(searched_metrics.iteration_time),
                   static_cast<long long>(ooo_metrics.iteration_time)));
  }
}

// ---------------------------------------------------------------------------
// Pipeline executor vs event path: one random pipeline config per seed, run
// inside an ObserverScope (SimEngine + Link events; the validator must stay
// clean; every iteration stepped) and outside it (the exact message-level
// executor, which may stop at a repeated boundary). Every result field must
// agree bit for bit, and the stepping must keep its contract
// (SteppingMismatch).

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Empty when an executor's metrics `a` equal the event path's `b` bit for
// bit; otherwise what differs.
std::string MetricsMismatch(const TrainMetrics& a, const TrainMetrics& b) {
  if (a.iteration_time == b.iteration_time &&
      SameBits(a.throughput, b.throughput) &&
      SameBits(a.gpu_utilization, b.gpu_utilization) &&
      SameBits(a.comm_comp_ratio, b.comm_comp_ratio) &&
      a.peak_memory_bytes == b.peak_memory_bytes && a.oom == b.oom) {
    return "";
  }
  return StrFormat(
      "executor metrics differ from the event path (iteration %lld vs %lld, "
      "utilization %.17g vs %.17g, comm/comp %.17g vs %.17g)",
      static_cast<long long>(a.iteration_time),
      static_cast<long long>(b.iteration_time), a.gpu_utilization,
      b.gpu_utilization, a.comm_comp_ratio, b.comm_comp_ratio);
}

// Empty when the producers ran as the stepping contract says (DESIGN.md
// §9.2): the event path, inside the validator, stepped every iteration; the
// executor, outside it, stepped no more, and counted the event path's
// events when it stepped them all. Otherwise what broke it.
std::string SteppingMismatch(const ReplayStats& exec, uint64_t exec_events,
                             const ReplayStats& event, uint64_t event_events) {
  if (event.executor || !exec.executor) {
    return "wrong producer (executor outside the validator, event path "
           "inside)";
  }
  if (event.simulated_iterations != event.total_iterations ||
      exec.total_iterations != event.total_iterations ||
      exec.simulated_iterations < 1 ||
      exec.simulated_iterations > exec.total_iterations ||
      exec.replayed != (exec.simulated_iterations < exec.total_iterations)) {
    return StrFormat(
        "stepped iterations: executor %d of %d (replayed %d), event path %d "
        "of %d",
        exec.simulated_iterations, exec.total_iterations, exec.replayed,
        event.simulated_iterations, event.total_iterations);
  }
  if (exec.simulated_iterations == exec.total_iterations
          ? exec_events != event_events
          : exec_events >= event_events) {
    return StrFormat(
        "executor counted %llu events stepping %d of %d iterations, the "
        "event path %llu",
        static_cast<unsigned long long>(exec_events),
        exec.simulated_iterations, exec.total_iterations,
        static_cast<unsigned long long>(event_events));
  }
  return "";
}

void PipelineFuzz(uint64_t seed, std::vector<std::string>* errors) {
  // Its own stream, so the other families' draws do not move. The seed is
  // mixed first: Rng(s + 1) would replay Rng(s)'s draws shifted by one.
  Rng rng(Rng(seed ^ 0x919E).NextU64());
  constexpr PipelineStrategy kStrategies[] = {
      PipelineStrategy::kGPipe,     PipelineStrategy::kDapple,
      PipelineStrategy::kPipeDream, PipelineStrategy::kMegatron,
      PipelineStrategy::kMegatronFF, PipelineStrategy::kOooPipe1,
      PipelineStrategy::kOooPipe2};
  const PipelineStrategy strategy = kStrategies[rng.NextBelow(7)];

  NnModel model;
  const int batch = 2 << rng.NextBelow(6);  // 2..64
  switch (rng.NextBelow(4)) {
    case 0:
      model = Ffnn(4 + static_cast<int>(rng.NextBelow(13)), batch,
                   512 << rng.NextBelow(4));
      break;
    case 1:
      model = Bert(rng.NextBelow(2) == 0 ? 12 : 24, batch);
      break;
    case 2:
      model = RnnModel(4 + static_cast<int>(rng.NextBelow(9)), batch);
      break;
    default:
      model = RandomModel(rng);
      break;
  }

  PipelineConfig config;
  config.cluster = rng.NextBelow(2) == 0 ? ClusterSpec::PubB(1)
                                         : ClusterSpec::PubA(2);
  config.num_gpus = 1 + static_cast<int>(rng.NextBelow(8));
  config.num_micro_batches = 1 + static_cast<int>(rng.NextBelow(8));
  config.reverse_first_k =
      static_cast<int>(rng.NextBelow(static_cast<uint64_t>(
          model.num_layers() + 1)));
  if (rng.NextBelow(4) == 0) {
    config.unit_time = Us(1 + static_cast<int64_t>(rng.NextBelow(1000)));
  }
  switch (rng.NextBelow(5)) {
    case 0:
      break;  // the cluster's own links
    case 1:
      config.use_link_override = true;
      config.link_override = LinkSpec::Eth10G();
      break;
    case 2:
      // Ideal: every 256 KiB chunk takes 1 ns.
      config.use_link_override = true;
      config.link_override = {"ideal-1ns-chunk", 1e6, 0};
      break;
    case 3:
      config.use_link_override = true;
      config.link_override = {"slow", rng.Uniform(0.02, 0.5),
                              Us(100 + static_cast<int64_t>(
                                           rng.NextBelow(2000)))};
      break;
    default:
      config.use_link_override = true;
      config.link_override = {"random", rng.Uniform(0.5, 100.0),
                              static_cast<TimeNs>(rng.NextBelow(30001))};
      break;
  }
  config.measured_iterations =
      rng.NextBelow(2) == 0 ? 1 + static_cast<int>(rng.NextBelow(3))
                            : 16 + static_cast<int>(rng.NextBelow(15));
  // At most one GPU per layer, and fewer until the strategy's assignment
  // gives each GPU a layer.
  config.num_gpus = std::min(config.num_gpus, model.num_layers());
  while (config.num_gpus > 1 &&
         !AssignmentCoversAllGpus(
             PipelineEngine(config).AssignmentFor(model, strategy),
             config.num_gpus)) {
    --config.num_gpus;
  }

  const std::string what = StrFormat(
      "seed %llu: pipeline %s, %s (%d layers), %d GPUs, M=%d, link %s, "
      "unit %lld, k=%d, %d measured: ",
      static_cast<unsigned long long>(seed), PipelineStrategyName(strategy),
      model.name.c_str(), model.num_layers(), config.num_gpus,
      config.num_micro_batches,
      config.use_link_override ? config.link_override.name.c_str()
                               : config.cluster.name.c_str(),
      static_cast<long long>(config.unit_time), config.reverse_first_k,
      config.measured_iterations);
  auto fail = [errors, &what](const std::string& msg) {
    errors->push_back(what + msg);
  };

  const PipelineEngine engine(config);
  struct Run {
    PipelineResult result;
    ReplayStats stats;
    uint64_t events = 0;
  };
  auto run = [&engine, &model, strategy] {
    Run r;
    const uint64_t before = SimEngine::ThreadProcessedEvents();
    r.result = engine.Run(model, strategy, nullptr, &r.stats);
    r.events = SimEngine::ThreadProcessedEvents() - before;
    return r;
  };
  SimValidator validator;
  Run event;
  {
    ObserverScope scope(&validator);
    event = run();
  }
  if (!validator.ok()) {
    fail("event path: " + validator.Summary());
  }
  const Run exec = run();
  if (const std::string m = SteppingMismatch(exec.stats, exec.events,
                                             event.stats, event.events);
      !m.empty()) {
    fail(m);
  }
  if (const std::string m =
          MetricsMismatch(exec.result.metrics, event.result.metrics);
      !m.empty()) {
    fail(m);
  }
  if (exec.result.assignment != event.result.assignment ||
      exec.result.weight_versions != event.result.weight_versions ||
      exec.result.per_gpu_peak_memory != event.result.per_gpu_peak_memory ||
      !SameBits(exec.result.comm_comp_ratio, event.result.comm_comp_ratio) ||
      exec.result.fwd_start != event.result.fwd_start ||
      exec.result.wgrad_done != event.result.wgrad_done) {
    fail("executor result fields (assignment, versions, per-GPU peaks, "
         "fwd_start, wgrad_done) differ from the event path");
  }
}

// ---------------------------------------------------------------------------
// Data-parallel executor vs event path: one random data-parallel config per
// seed, run inside an ObserverScope (SimEngine + Gpu + Link; the validator
// must stay clean; every iteration stepped) and outside it (the five-slot
// executor, which may stop at a repeated boundary). Every metric must agree
// bit for bit, and the stepping must keep its contract (SteppingMismatch).

void DataParallelFuzz(uint64_t seed, std::vector<std::string>* errors) {
  // Its own stream, like the pipeline family's.
  Rng rng(Rng(seed ^ 0xD9A7).NextU64());
  NnModel model;
  const int batch = 8 << rng.NextBelow(4);  // 8..64
  switch (rng.NextBelow(4)) {
    case 0:
      model = ResNet(rng.NextBelow(4) == 0 ? 101 : 50, batch);
      break;
    case 1:
      model = Ffnn(2 + static_cast<int>(rng.NextBelow(15)), batch,
                   512 << rng.NextBelow(4));
      break;
    default:
      model = RandomModel(rng);
      break;
  }
  const TrainGraph graph(&model);

  DataParallelConfig config;
  switch (rng.NextBelow(4)) {
    case 0:
      config.cluster = ClusterSpec::PrivA();
      break;
    case 1:
      config.cluster = ClusterSpec::PrivB();
      break;
    case 2:
      config.cluster = ClusterSpec::PubA();
      break;
    default:
      config.cluster = ClusterSpec::PubB();
      break;
  }
  config.num_gpus = 1 + static_cast<int>(rng.NextBelow(
                            static_cast<uint64_t>(
                                config.cluster.total_gpus())));
  config.scheme =
      rng.NextBelow(2) == 0 ? CommScheme::kBytePS : CommScheme::kHorovod;
  switch (rng.NextBelow(3)) {
    case 0:
      config.profile = SystemProfile::TensorFlow();
      break;
    case 1:
      config.profile = SystemProfile::TensorFlowXla();
      break;
    default:
      config.profile = SystemProfile::PyTorchNimble();
      break;
  }
  config.precompiled_issue = rng.NextBelow(2) == 0;
  config.measured_iterations = 1 + static_cast<int>(rng.NextBelow(4));
  // Unit-time mode with fractional sync units; 2^k-ns units give exact
  // chunk times, whose ends tie with kernel ends.
  if (rng.NextBelow(3) == 0) {
    config.unit_time =
        rng.NextBelow(2) == 0
            ? TimeNs{1} << (10 + rng.NextBelow(11))
            : Us(1 + static_cast<int64_t>(rng.NextBelow(1000)));
    config.unit_sync_units =
        0.25 * static_cast<double>(1 + rng.NextBelow(16));  // 0.25..4
  }
  config.partition_bytes = rng.NextBelow(2) == 0
                               ? config.partition_bytes
                               : (64 << 10) << rng.NextBelow(9);  // ..16 MiB
  switch (rng.NextBelow(4)) {
    case 0:
      config.commit_window_bytes = 0;
      break;
    case 1:  // less than one partition
      config.commit_window_bytes = 1 + static_cast<int64_t>(rng.NextBelow(
                                           static_cast<uint64_t>(
                                               config.partition_bytes)));
      break;
    case 2:
      break;  // the default window
    default:
      config.commit_window_bytes = (1 << 20) << rng.NextBelow(8);
      break;
  }
  switch (rng.NextBelow(4)) {
    case 0:
      config.fusion_buffer_bytes = 1;
      break;
    case 1:
      break;  // the default buffer
    default:
      config.fusion_buffer_bytes = (1 << 20) << rng.NextBelow(7);
      break;
  }
  switch (rng.NextBelow(3)) {
    case 0:
      config.fusion_cycle = 0;
      break;
    case 1:
      break;  // the default cycle
    default:
      config.fusion_cycle = Us(static_cast<int64_t>(rng.NextBelow(20001)));
      break;
  }
  const int k = rng.NextBelow(2) == 0
                    ? 0
                    : static_cast<int>(rng.NextBelow(static_cast<uint64_t>(
                          model.num_layers() + 1)));
  const std::vector<TrainOp> order = ReverseFirstK(graph, k).order;

  const std::string what = StrFormat(
      "seed %llu: dp %s, %s (%d layers), %s, %d GPUs, k=%d, %s issue, unit "
      "%lld x %g, partition %lld, window %lld, fusion %lld B / %lld ns, %d "
      "measured: ",
      static_cast<unsigned long long>(seed),
      config.scheme == CommScheme::kBytePS ? "BytePS" : "Horovod",
      model.name.c_str(), model.num_layers(), config.cluster.name.c_str(),
      config.num_gpus, k, config.precompiled_issue ? "precompiled" : "per-op",
      static_cast<long long>(config.unit_time), config.unit_sync_units,
      static_cast<long long>(config.partition_bytes),
      static_cast<long long>(config.commit_window_bytes),
      static_cast<long long>(config.fusion_buffer_bytes),
      static_cast<long long>(config.fusion_cycle),
      config.measured_iterations);
  auto fail = [errors, &what](const std::string& msg) {
    errors->push_back(what + msg);
  };

  const DataParallelEngine engine(config);
  struct Run {
    TrainMetrics metrics;
    ReplayStats stats;
    uint64_t events = 0;
  };
  auto run = [&engine, &model, &order] {
    Run r;
    const uint64_t before = SimEngine::ThreadProcessedEvents();
    r.metrics = engine.Run(model, order, nullptr, &r.stats);
    r.events = SimEngine::ThreadProcessedEvents() - before;
    return r;
  };
  SimValidator validator;
  Run event;
  {
    ObserverScope scope(&validator);
    event = run();
  }
  if (!validator.ok()) {
    fail("event path: " + validator.Summary());
  }
  const Run exec = run();
  if (const std::string m = SteppingMismatch(exec.stats, exec.events,
                                             event.stats, event.events);
      !m.empty()) {
    fail(m);
  }
  if (const std::string m = MetricsMismatch(exec.metrics, event.metrics);
      !m.empty()) {
    fail(m);
  }
}

// ---------------------------------------------------------------------------
// Serving executor vs event path: one random serving run per seed — a
// ServeEngine or a fleet, serve-only or either co-run — inside an
// ObserverScope (SimEngine + Gpu + CpuLauncher; the validator must stay
// clean) and outside it (the slot executor). Every metric and the event
// count must agree bit for bit, and the event path's metrics must pass
// ServeSanity.

// An inference model per batch size: a zoo model, or random conv/dense
// layers whose shapes are drawn once and rebuilt at each batch size.
std::function<NnModel(int)> RandomInferenceModel(Rng& rng, std::string* name) {
  switch (rng.NextBelow(3)) {
    case 0: {
      const int layers = 2 + static_cast<int>(rng.NextBelow(4));
      const int hidden = 256 << rng.NextBelow(3);
      *name = StrFormat("ffnn%d/%d", layers, hidden);
      return [layers, hidden](int batch) {
        return Ffnn(layers, batch, hidden);
      };
    }
    case 1: {
      const int image = 32 << rng.NextBelow(2);
      *name = StrFormat("mobilenet@%d", image);
      return [image](int batch) {
        return MobileNetV3Large(1.0, batch, image);
      };
    }
    default:
      break;
  }
  struct Shape {
    bool conv;
    int channels, hw, out, kernel;
  };
  std::vector<Shape> shapes(1 + rng.NextBelow(6));
  for (Shape& shape : shapes) {
    shape.conv = rng.NextBelow(2) == 0;
    shape.channels = 8 << rng.NextBelow(3);
    shape.hw = 8 << rng.NextBelow(2);
    shape.out = 16 << rng.NextBelow(3);
    shape.kernel = rng.NextBelow(2) == 0 ? 1 : 3;
  }
  *name = StrFormat("random(%zu layers)", shapes.size());
  return [shapes](int batch) {
    NnModel m;
    m.name = "fuzz-infer";
    m.batch = batch;
    for (size_t i = 0; i < shapes.size(); ++i) {
      const Shape& s = shapes[i];
      const std::string layer = StrFormat("l%zu", i);
      m.layers.push_back(
          s.conv ? MakeConv2d(layer, "b0", batch, s.channels, s.hw, s.hw,
                              s.out, s.kernel, 1)
                 : MakeDense(layer, "b0", batch, 1, s.channels * 8, s.out));
    }
    return m;
  };
}

void ServingFuzz(uint64_t seed, std::vector<std::string>* errors) {
  // Its own stream, like the pipeline and dp families'.
  Rng rng(Rng(seed ^ 0x5E7F).NextU64());
  FleetConfig config;
  config.gpu = RandomGpuSpec(rng);
  config.profile = RandomProfile(rng);
  const bool zero_gaps = rng.NextBelow(4) == 0;
  if (zero_gaps) {
    // Kernel begins and batch launches land on the nanosecond that drew
    // them, tying with whatever else runs then.
    config.gpu.kernel_exec_overhead = 0;
    config.profile.graph_launch_latency = 0;
  }
  std::string infer_name;
  config.make_model = RandomInferenceModel(rng, &infer_name);

  const int replicas = 1 + static_cast<int>(rng.NextBelow(8));
  const bool serve_engine = replicas == 1 && rng.NextBelow(2) == 0;
  const uint64_t policy = rng.NextBelow(3);
  config.router.policy = policy == 0   ? RoutingPolicy::kRoundRobin
                         : policy == 1 ? RoutingPolicy::kLeastLoaded
                                       : RoutingPolicy::kPowerOfTwo;
  config.router.seed = rng.NextU64();

  // Dense arrivals pack a request into every few nanoseconds; sparse ones
  // leave the replicas mostly idle. Either way a run offers a few hundred
  // requests at most.
  const bool dense = rng.NextBelow(2) == 0;
  config.arrivals.kind =
      rng.NextBelow(2) == 0 ? ArrivalKind::kPoisson : ArrivalKind::kBursty;
  config.arrivals.rate_rps =
      dense ? rng.Uniform(1e6, 5e7) : rng.Uniform(2e3, 3e4) * replicas;
  config.arrivals.seed = rng.NextU64();
  const double requests = 10.0 + static_cast<double>(rng.NextBelow(291));
  config.horizon = std::max<TimeNs>(
      1000, static_cast<TimeNs>(requests / config.arrivals.rate_rps * 1e9));
  // One run in four packs its timers onto nanoseconds: 1 ns batching
  // deadlines, 2 ns autoscaler ticks and scaling thresholds around a queue
  // depth of one, so a tick's decision turns on whether a deadline on its
  // nanosecond ran first.
  const bool ns_timers = rng.NextBelow(4) == 0;
  if (ns_timers) {
    config.horizon = std::min(config.horizon, Us(50));
  }
  config.slo = std::max<TimeNs>(1, static_cast<TimeNs>(
                                       static_cast<double>(config.horizon) *
                                       rng.Uniform(0.1, 4.0)));
  if (!serve_engine && rng.NextBelow(2) == 0) {
    config.envelope = MakeDiurnalEnvelope(
        std::max<TimeNs>(8, config.horizon /
                                (1 + static_cast<TimeNs>(rng.NextBelow(4)))),
        rng.Uniform(0.2, 0.9), rng.Uniform(1.1, 2.0),
        /*steps=*/2 + static_cast<int>(rng.NextBelow(7)));
  }

  config.batcher.max_batch = 1 + static_cast<int>(rng.NextBelow(8));
  config.batcher.max_queue_delay =
      ns_timers || rng.NextBelow(4) == 0
          ? 1
          : static_cast<TimeNs>(rng.NextBelow(
                static_cast<uint64_t>(config.horizon / 4 + 1)));
  config.batcher.max_inflight = 1 + static_cast<int>(rng.NextBelow(2));

  AutoscalerConfig& scale = config.autoscaler;
  scale.max_replicas = replicas;
  scale.min_replicas = replicas;
  if (ns_timers || rng.NextBelow(2) == 0) {
    scale.min_replicas = 1 + static_cast<int>(rng.NextBelow(
                                 static_cast<uint64_t>(replicas)));
    scale.initial_replicas = static_cast<int>(
        rng.NextBelow(static_cast<uint64_t>(replicas + 1)));
    scale.scale_up_depth =
        ns_timers ? rng.Uniform(0.3, 1.5) : rng.Uniform(0.5, 8.0);
    scale.scale_down_depth = scale.scale_up_depth * rng.Uniform(0.0, 0.5);
    scale.cooldown = static_cast<TimeNs>(rng.NextBelow(
        static_cast<uint64_t>(ns_timers ? 101 : config.horizon / 8 + 1)));
    scale.warmup =
        rng.NextBelow(4) == 0
            ? 0
            : static_cast<TimeNs>(rng.NextBelow(static_cast<uint64_t>(
                  ns_timers ? 201 : config.horizon / 4 + 1)));
  }
  scale.evaluate_every =
      ns_timers ? 2
                : std::max<TimeNs>(
                      2, config.horizon /
                             (5 + static_cast<TimeNs>(rng.NextBelow(500))));

  // Serve-only, or co-run with in-order or ooo training.
  const int mode = static_cast<int>(rng.NextBelow(3));
  NnModel train_model;
  if (mode != 0) {
    train_model = rng.NextBelow(2) == 0
                      ? RandomModel(rng)
                      : Ffnn(2 + static_cast<int>(rng.NextBelow(7)),
                             8 << rng.NextBelow(3), 256 << rng.NextBelow(3));
  }
  const int train_iterations = 2 + static_cast<int>(rng.NextBelow(3));
  IterationSchedule schedule;
  if (mode != 0) {
    const TrainGraph graph(&train_model);
    schedule =
        mode == 1
            ? ConventionalIteration(graph)
            : MakeOooSchedule(graph, config.gpu, config.profile).schedule;
  }

  const std::string train =
      mode == 0 ? std::string("serve-only")
                : StrFormat("%s co-run of %s (%d layers) x%d",
                            mode == 1 ? "in-order" : "ooo",
                            train_model.name.c_str(), train_model.num_layers(),
                            train_iterations);
  const std::string what = StrFormat(
      "seed %llu: serving %s, %d replica(s), %s, %s, %s, infer %s, batch %d "
      "x%d inflight, delay %lld, %s arrivals %.0f rps over %lld ns, scale "
      "%d..%d every %lld ns: ",
      static_cast<unsigned long long>(seed),
      serve_engine ? "ServeEngine" : "FleetEngine", replicas,
      RoutingPolicyName(config.router.policy), train.c_str(),
      zero_gaps ? "zero gaps" : "gaps", infer_name.c_str(),
      config.batcher.max_batch, config.batcher.max_inflight,
      static_cast<long long>(config.batcher.max_queue_delay),
      dense ? "dense" : "sparse", config.arrivals.rate_rps,
      static_cast<long long>(config.horizon), scale.min_replicas,
      scale.max_replicas, static_cast<long long>(scale.evaluate_every));
  auto fail = [errors, &what](const std::string& msg) {
    errors->push_back(what + msg);
  };

  struct Run {
    FleetMetrics metrics;
    uint64_t events = 0;
  };
  auto run = [&] {
    Run r;
    const uint64_t before = SimEngine::ThreadProcessedEvents();
    if (serve_engine) {
      ServeConfig one;
      one.gpu = config.gpu;
      one.profile = config.profile;
      one.arrivals = config.arrivals;
      one.batcher = config.batcher;
      one.horizon = config.horizon;
      one.slo = config.slo;
      one.make_model = config.make_model;
      const ServeEngine engine(std::move(one));
      if (mode == 0) {
        r.metrics.serve = engine.RunServeOnly();
      } else {
        ServeCorunResult out =
            engine.RunCorun(train_model, schedule, train_iterations);
        r.metrics.serve = std::move(out.serve);
        r.metrics.train = out.train;
      }
    } else {
      const FleetEngine engine(config);
      r.metrics = mode == 0 ? engine.RunServeOnly()
                            : engine.RunCorun(train_model, schedule,
                                              train_iterations);
    }
    r.events = SimEngine::ThreadProcessedEvents() - before;
    return r;
  };
  SimValidator validator;
  Run event;
  {
    ObserverScope scope(&validator);
    event = run();
  }
  if (!validator.ok()) {
    fail("event path: " + validator.Summary());
  }
  if (validator.gpus_observed() != replicas) {
    fail(StrFormat("the validator observed %lld GPUs, not %d (the event path "
                   "did not run)",
                   static_cast<long long>(validator.gpus_observed()),
                   replicas));
  }
  const Run exec = run();
  if (const std::string m = ServingMismatch(exec.metrics, event.metrics);
      !m.empty()) {
    fail("executor vs event path: " + m);
  }
  if (exec.events != event.events) {
    fail(StrFormat("executor counted %llu events, the event path %llu",
                   static_cast<unsigned long long>(exec.events),
                   static_cast<unsigned long long>(event.events)));
  }
  ServeSanity(event.metrics.serve, config.batcher.max_batch, "event path",
              fail);
  if (event.metrics.serve.num_completed != event.metrics.serve.num_requests) {
    fail(StrFormat("%lld of %lld requests completed",
                   static_cast<long long>(event.metrics.serve.num_completed),
                   static_cast<long long>(event.metrics.serve.num_requests)));
  }
}

}  // namespace

std::string ServingMismatch(const FleetMetrics& a, const FleetMetrics& b) {
  std::string diff;
  const auto integer = [&diff](const std::string& field, int64_t x,
                               int64_t y) {
    if (diff.empty() && x != y) {
      diff = StrFormat("%s: %lld vs %lld", field.c_str(),
                       static_cast<long long>(x), static_cast<long long>(y));
    }
  };
  const auto real = [&diff](const std::string& field, double x, double y) {
    if (diff.empty() && !SameBits(x, y)) {
      diff = StrFormat("%s: %.17g vs %.17g", field.c_str(), x, y);
    }
  };
  const auto serve = [&](const std::string& p, const ServeMetrics& x,
                         const ServeMetrics& y) {
    integer(p + "num_requests", x.num_requests, y.num_requests);
    integer(p + "num_completed", x.num_completed, y.num_completed);
    integer(p + "num_batches", x.num_batches, y.num_batches);
    real(p + "offered_rps", x.offered_rps, y.offered_rps);
    real(p + "completed_rps", x.completed_rps, y.completed_rps);
    real(p + "goodput_rps", x.goodput_rps, y.goodput_rps);
    real(p + "slo_attainment", x.slo_attainment, y.slo_attainment);
    integer(p + "p50_latency", x.p50_latency, y.p50_latency);
    integer(p + "p95_latency", x.p95_latency, y.p95_latency);
    integer(p + "p99_latency", x.p99_latency, y.p99_latency);
    integer(p + "max_latency", x.max_latency, y.max_latency);
    real(p + "mean_latency_ms", x.mean_latency_ms, y.mean_latency_ms);
    real(p + "mean_queue_delay_ms", x.mean_queue_delay_ms,
         y.mean_queue_delay_ms);
    real(p + "mean_exec_ms", x.mean_exec_ms, y.mean_exec_ms);
    real(p + "mean_batch_size", x.mean_batch_size, y.mean_batch_size);
    integer(p + "batch_sizes.max_value", x.batch_sizes.max_value(),
            y.batch_sizes.max_value());
    integer(p + "batch_sizes.total", x.batch_sizes.total(),
            y.batch_sizes.total());
    real(p + "batch_sizes.mean", x.batch_sizes.mean(), y.batch_sizes.mean());
    for (int k = 0; diff.empty() && k <= x.batch_sizes.max_value(); ++k) {
      integer(StrFormat("%sbatch_sizes[%d]", p.c_str(), k),
              x.batch_sizes.count(k), y.batch_sizes.count(k));
    }
  };
  serve("serve.", a.serve, b.serve);
  integer("per_replica.size", static_cast<int64_t>(a.per_replica.size()),
          static_cast<int64_t>(b.per_replica.size()));
  for (size_t r = 0; diff.empty() && r < a.per_replica.size(); ++r) {
    serve(StrFormat("replica %zu.", r), a.per_replica[r], b.per_replica[r]);
  }
  integer("replica_completed.size",
          static_cast<int64_t>(a.replica_completed.size()),
          static_cast<int64_t>(b.replica_completed.size()));
  for (size_t r = 0; diff.empty() && r < a.replica_completed.size(); ++r) {
    integer(StrFormat("replica_completed[%zu]", r), a.replica_completed[r],
            b.replica_completed[r]);
  }
  real("imbalance", a.imbalance, b.imbalance);
  integer("scale_ups", a.scale_ups, b.scale_ups);
  integer("scale_downs", a.scale_downs, b.scale_downs);
  integer("min_routable", a.min_routable, b.min_routable);
  integer("max_routable", a.max_routable, b.max_routable);
  real("mean_routable", a.mean_routable, b.mean_routable);
  integer("replica_timeline.size",
          static_cast<int64_t>(a.replica_timeline.size()),
          static_cast<int64_t>(b.replica_timeline.size()));
  for (size_t i = 0; diff.empty() && i < a.replica_timeline.size(); ++i) {
    integer(StrFormat("replica_timeline[%zu].time", i),
            a.replica_timeline[i].first, b.replica_timeline[i].first);
    integer(StrFormat("replica_timeline[%zu].routable", i),
            a.replica_timeline[i].second, b.replica_timeline[i].second);
  }
  integer("router_decisions", a.router_decisions, b.router_decisions);
  integer("train.iteration_time", a.train.iteration_time,
          b.train.iteration_time);
  real("train.throughput", a.train.throughput, b.train.throughput);
  real("train.gpu_utilization", a.train.gpu_utilization,
       b.train.gpu_utilization);
  real("train.comm_comp_ratio", a.train.comm_comp_ratio,
       b.train.comm_comp_ratio);
  integer("train.peak_memory_bytes", a.train.peak_memory_bytes,
          b.train.peak_memory_bytes);
  integer("train.oom", a.train.oom, b.train.oom);
  integer("train_iter_min", a.train_iter_min, b.train_iter_min);
  integer("train_iter_max", a.train_iter_max, b.train_iter_max);
  return diff;
}

void FuzzOneSeed(uint64_t seed, const std::string& checks,
                 std::vector<std::string>* errors) {
  Rng rng(seed);
  auto on = [&checks](const char* family) {
    return MatchAnyGlob(checks, family);
  };
  auto fail = [errors, seed](std::string msg) {
    errors->push_back(
        StrFormat("seed %llu: ", static_cast<unsigned long long>(seed)) +
        std::move(msg));
  };

  // The model/schedule stack feeds the schedule, memory, and train families;
  // generate it only when one of them is selected so a pure dag/link/serve
  // run stays cheap.
  if (on("schedule") || on("memory") || on("train")) {
    const GpuSpec gpu = RandomGpuSpec(rng);
    const SystemProfile profile = RandomProfile(rng);
    const NnModel model = RandomModel(rng);
    const TrainGraph graph(&model);

    const IterationSchedule conventional = ConventionalIteration(graph);
    const JointScheduleResult ooo = MakeOooSchedule(graph, gpu, profile);

    if (on("schedule")) {
      // Schedule equivalence: both orders are dependency-preserving
      // permutations of the same iteration op set.
      ScheduleCheckReport conv_check =
          CheckIterationSchedule(graph, conventional);
      if (!conv_check.ok()) {
        fail("conventional schedule: " + conv_check.ToString());
      }
      ScheduleCheckReport ooo_check =
          CheckIterationSchedule(graph, ooo.schedule);
      if (!ooo_check.ok()) {
        fail("ooo schedule: " + ooo_check.ToString());
      }
    }

    if (on("memory")) {
      // Memory model vs the independent interval-liveness reference, for
      // both orders, plus the scheduler's cap contract.
      const std::vector<TrainOp> conv_order = conventional.MergedOrder();
      const std::vector<TrainOp> ooo_order = ooo.schedule.MergedOrder();
      const MemoryTimeline conv_mem =
          EstimateBackpropMemory(model, conv_order);
      const MemoryTimeline ooo_mem = EstimateBackpropMemory(model, ooo_order);
      ScheduleCheckReport conv_mem_check =
          CheckMemoryTimeline(model, conv_order, conv_mem);
      if (!conv_mem_check.ok()) {
        fail("conventional memory timeline: " + conv_mem_check.ToString());
      }
      ScheduleCheckReport ooo_mem_check =
          CheckMemoryTimeline(model, ooo_order, ooo_mem);
      if (!ooo_mem_check.ok()) {
        fail("ooo memory timeline: " + ooo_mem_check.ToString());
      }
      if (ooo.peak_memory != ooo_mem.peak) {
        fail(StrFormat("scheduler reported peak %lld, memory model says %lld",
                       static_cast<long long>(ooo.peak_memory),
                       static_cast<long long>(ooo_mem.peak)));
      }
      // Cap contract: within 1.1x of the conventional peak, unless the
      // fallback exhausted every backward region (then the cap is
      // best-effort).
      const int64_t cap = static_cast<int64_t>(1.1 * conv_mem.peak);
      int bwd_regions = 0;
      for (const Region& region : BuildRegions(graph)) {
        if (region.kind == Region::Kind::kBackward) {
          ++bwd_regions;
        }
      }
      if (ooo.peak_memory > cap && ooo.pre_scheduled_regions != bwd_regions) {
        fail(StrFormat("peak %lld over cap %lld with only %d of %d backward "
                       "regions pre-scheduled",
                       static_cast<long long>(ooo.peak_memory),
                       static_cast<long long>(cap), ooo.pre_scheduled_regions,
                       bwd_regions));
      }
    }

    if (on("train")) {
      // Differential execution: conventional vs ooo, both end to end under
      // the invariant validator, at a short length and a long one. The
      // validator forces the event path, which simulates every iteration;
      // the same runs outside it take the exact executor, which stops at a
      // repeated barrier (src/core/schedule.h), and must report the same
      // metrics, bit for bit.
      SingleGpuConfig cfg;
      cfg.gpu = gpu;
      cfg.profile = profile;
      cfg.precompiled_issue = rng.NextBelow(2) == 0;
      const IterationSchedule* schedules[2] = {&conventional, &ooo.schedule};
      const char* names[2] = {"conventional", "ooo"};
      const int lengths[2] = {2, 24};
      TrainMetrics validated[2][2];
      ReplayStats validated_stats[2][2];
      SimValidator validator;
      {
        ObserverScope scope(&validator);
        for (int l = 0; l < 2; ++l) {
          cfg.measured_iterations = lengths[l];
          const SingleGpuEngine engine(cfg);
          for (int k = 0; k < 2; ++k) {
            validated[l][k] = engine.Run(model, *schedules[k], nullptr,
                                         &validated_stats[l][k]);
          }
        }
      }
      if (!validator.ok()) {
        fail("train run: " + validator.Summary());
      }
      const int64_t kernels =
          static_cast<int64_t>(conventional.ops.size() +
                               ooo.schedule.ops.size()) *
          (lengths[0] + 1 + lengths[1] + 1);
      if (validator.kernels_finished() != kernels) {
        fail(StrFormat("train run: validator observed %lld kernel completions, "
                       "not every iteration's %lld",
                       static_cast<long long>(validator.kernels_finished()),
                       static_cast<long long>(kernels)));
      }
      if (validated[0][0].iteration_time <= 0 ||
          validated[0][1].iteration_time <= 0) {
        fail(StrFormat("non-positive iteration time (conventional %lld, ooo "
                       "%lld)",
                       static_cast<long long>(validated[0][0].iteration_time),
                       static_cast<long long>(validated[0][1].iteration_time)));
      }
      int stepped[2][2];
      for (int l = 0; l < 2; ++l) {
        cfg.measured_iterations = lengths[l];
        const SingleGpuEngine engine(cfg);
        for (int k = 0; k < 2; ++k) {
          ReplayStats stats;
          const TrainMetrics m =
              engine.Run(model, *schedules[k], nullptr, &stats);
          const TrainMetrics& v = validated[l][k];
          const ReplayStats& vs = validated_stats[l][k];
          const std::string what =
              StrFormat("train %s, %d measured: ", names[k], lengths[l]);
          if (!stats.executor || vs.executor) {
            fail(what + "wrong producer (executor outside the validator, "
                        "event path inside)");
          }
          if (const std::string d = MetricsMismatch(m, v); !d.empty()) {
            fail(what + d);
          }
          if (vs.simulated_iterations != lengths[l] + 1) {
            fail(what + StrFormat("the event path simulated %d of %d "
                                  "iterations",
                                  vs.simulated_iterations, lengths[l] + 1));
          }
          stepped[l][k] = stats.simulated_iterations;
        }
      }
      // A precompiled run repeats the launch at its first barrier. A per-op
      // run steps until its launcher settles, however long the run: the
      // short run steps what the long one does, up to its own length.
      for (int k = 0; k < 2; ++k) {
        const int expect =
            cfg.precompiled_issue ? 1 : std::min(stepped[1][k], lengths[0] + 1);
        if (stepped[0][k] != expect ||
            (cfg.precompiled_issue && stepped[1][k] != 1)) {
          fail(StrFormat("train %s, %s: the executor stepped %d and %d "
                         "iterations at %d and %d measured",
                         names[k],
                         cfg.precompiled_issue ? "precompiled" : "per-op",
                         stepped[0][k], stepped[1][k], lengths[0], lengths[1]));
        }
      }
    }
  }

  if (on("dag")) {
    MetamorphicDagChecks(rng, seed, errors);
  }
  if (on("link")) {
    LinkFuzz(rng, seed, errors);
  }
  if (on("serve") && seed % 4 == 0) {
    ServeFuzz(rng, seed, errors);
  }
  if (on("fleet") && seed % 2 == 0) {
    FleetFuzz(rng, seed, errors);
  }
  if (on("search") && seed % 2 == 1) {
    SearchFuzz(rng, seed, errors);
  }
  if (on("pipeline")) {
    PipelineFuzz(seed, errors);
  }
  if (on("dp")) {
    DataParallelFuzz(seed, errors);
  }
  if (on("serving")) {
    ServingFuzz(seed, errors);
  }
}

FuzzResult RunFuzz(const FuzzOptions& options) {
  FuzzResult result;
  const size_t n =
      options.num_seeds > 0 ? static_cast<size_t>(options.num_seeds) : 0;
  // One error-list slot per seed: workers never share state, and the merge
  // below walks slots in seed order, so the report is byte-identical for
  // every jobs value (the tier-5 fuzz_parallel_test pins this).
  std::vector<std::vector<std::string>> per_seed(n);

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (jobs < 1) {
    jobs = 1;
  }
  if (static_cast<size_t>(jobs) > n) {
    jobs = static_cast<int>(n);
  }

  WorkerPool pool(jobs);
  pool.Run(n, [&options, &per_seed](size_t i, int) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    FuzzOneSeed(seed, options.checks, &per_seed[i]);
  });

  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string>& errors = per_seed[i];
    ++result.seeds_run;
    if (!errors.empty()) {
      ++result.failed_seeds;
      for (std::string& e : errors) {
        if (result.errors.size() < 200) {
          result.errors.push_back(std::move(e));
        }
      }
    }
    if (options.verbose) {
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(
                       options.base_seed + static_cast<uint64_t>(i)),
                   errors.empty() ? "ok" : "FAILED");
    }
  }
  return result;
}

int FuzzMain(int argc, char** argv) {
  FuzzOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    // A numeric flag's value, as --flag=V or --flag V, must parse whole;
    // anything else exits 2 naming the flag. Returns false when `arg` is
    // not `flag`.
    bool bad_number = false;
    auto number = [&](const char* flag, auto* out) {
      const std::string eq = std::string(flag) + "=";
      const char* v = value_of(eq.c_str());
      if (v == nullptr && arg == flag && i + 1 < argc) {
        v = argv[++i];
      }
      if (v == nullptr) {
        return false;
      }
      if (!ParseWhole(v, out)) {
        std::fprintf(stderr, "fuzz: %s needs an integer, got '%s'\n", flag,
                     v);
        bad_number = true;
      }
      return true;
    };
    if (arg == "fuzz") {
      continue;  // subcommand token forwarded by the oobp driver
    } else if (number("--seeds", &opts.num_seeds) ||
               number("--base-seed", &opts.base_seed) ||
               number("--jobs", &opts.jobs)) {
      if (bad_number) {
        return 2;
      }
    } else if (const char* v4 = value_of("--checks=")) {
      opts.checks = v4;
    } else if (arg == "--checks" && i + 1 < argc) {
      opts.checks = argv[++i];
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: oobp fuzz [--seeds=N] [--base-seed=N] [--jobs=N]\n"
                   "                 [--checks=GLOBS] [--verbose]\n"
                   "  --jobs=N       seeds per thread pool; 0 = all cores\n"
                   "  --checks=GLOBS comma-separated globs over families\n"
                   "                 schedule,memory,train,dag,link,serve,"
                   "fleet,search,pipeline,dp,serving\n");
      return 2;
    }
  }
  if (opts.num_seeds <= 0) {
    std::fprintf(stderr, "fuzz: --seeds must be positive\n");
    return 2;
  }
  const FuzzResult result = RunFuzz(opts);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "FAIL %s\n", e.c_str());
  }
  std::printf("fuzz: %d seed(s), %d failed (base seed %llu)\n",
              result.seeds_run, result.failed_seeds,
              static_cast<unsigned long long>(opts.base_seed));
  return result.ok() ? 0 : 1;
}

}  // namespace oobp

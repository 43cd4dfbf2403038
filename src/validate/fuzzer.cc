#include "src/validate/fuzzer.h"

#include <algorithm>
#include <atomic>
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
#include "src/core/schedule.h"
#include "src/hw/gpu.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/link.h"
#include "src/nn/layer_builder.h"
#include "src/nn/model_zoo.h"
#include "src/nn/train_graph.h"
#include "src/runner/glob.h"
#include "src/runtime/pipeline_engine.h"
#include "src/runtime/single_gpu_engine.h"
#include "src/serve/fleet_engine.h"
#include "src/serve/serve_engine.h"
#include "src/search/evaluator.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/sim/engine.h"
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
  std::optional<ValidationScope> scope;
  if (validator != nullptr) {
    scope.emplace(validator);
  }
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
      ValidationScope scope(&validator);
      SimEngine engine;
      Link link(&engine, spec, chunk, nullptr, 200, window);
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
  cfg.make_model = [](int batch) {
    NnModel m;
    m.name = "fuzz-infer";
    m.batch = batch;
    m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
    m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
    m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
    return m;
  };

  ServeEngine serve(cfg);
  SimValidator validator;
  ServeMetrics m;
  {
    ValidationScope scope(&validator);
    m = serve.RunServeOnly();
  }
  if (!validator.ok()) {
    fail(validator.Summary());
  }
  if (m.num_completed > m.num_requests) {
    fail(StrFormat("completed %lld > offered %lld",
                   static_cast<long long>(m.num_completed),
                   static_cast<long long>(m.num_requests)));
  }
  if (m.num_completed > 0 &&
      !(m.p50_latency <= m.p95_latency && m.p95_latency <= m.p99_latency &&
        m.p99_latency <= m.max_latency)) {
    fail(StrFormat("percentiles not monotone: p50=%lld p95=%lld p99=%lld "
                   "max=%lld",
                   static_cast<long long>(m.p50_latency),
                   static_cast<long long>(m.p95_latency),
                   static_cast<long long>(m.p99_latency),
                   static_cast<long long>(m.max_latency)));
  }
  if (m.slo_attainment < 0.0 || m.slo_attainment > 1.0) {
    fail(StrFormat("slo_attainment %.6f outside [0, 1]", m.slo_attainment));
  }
  if (m.goodput_rps > m.completed_rps * (1.0 + 1e-9) + 1e-9) {
    fail(StrFormat("goodput %.3f rps exceeds completion rate %.3f rps",
                   m.goodput_rps, m.completed_rps));
  }
  if (m.mean_batch_size > static_cast<double>(cfg.batcher.max_batch) + 1e-9) {
    fail(StrFormat("mean batch %.3f exceeds max_batch %d", m.mean_batch_size,
                   cfg.batcher.max_batch));
  }
}

// ---------------------------------------------------------------------------
// Fleet fuzz: random multi-replica fleets (router + autoscaler) under the
// validator, with a metamorphic routing property.

// Sanity checks shared by every fleet run.
void FleetSanity(const ServeMetrics& m, const char* what,
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
}

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
  base.make_model = [](int batch) {
    NnModel m;
    m.name = "fuzz-infer";
    m.batch = batch;
    m.layers.push_back(MakeConv2d("c0", "b0", batch, 8, 16, 16, 16, 3, 1));
    m.layers.push_back(MakeConv2d("c1", "b0", batch, 16, 8, 8, 32, 3, 1));
    m.layers.push_back(MakeDense("fc", "b1", batch, 1, 128, 64));
    return m;
  };

  const int R = 1 + static_cast<int>(rng.NextBelow(3));  // 1..3

  const auto run_fixed = [&base](int replicas, SimValidator* validator) {
    FleetConfig cfg = base;
    cfg.autoscaler.min_replicas = replicas;
    cfg.autoscaler.max_replicas = replicas;
    const FleetEngine engine(std::move(cfg));
    ValidationScope scope(validator);
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
  FleetSanity(small.serve, "fixed fleet", fail);
  FleetSanity(big.serve, "fixed fleet+1", fail);

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
    ValidationScope scope(&v_scaled);
    scaled = engine.RunServeOnly();
  }
  if (!v_scaled.ok()) {
    fail("autoscaled run: " + v_scaled.Summary());
  }
  FleetSanity(scaled.serve, "autoscaled fleet", fail);
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
// beam monotonicity, Tier A against the simulator along a mutation walk, and
// a differential searched-vs-MakeOooSchedule run under the SimValidator.

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

  // Tier A against the simulator: a warm analytic evaluator walks through
  // single-gene mutations of the searched genotype, resuming from its
  // prefix checkpoints as the search does, and must match the simulator's
  // time and memory peak to the bit at every step. The walk draws from its
  // own Rng so the draws above stay put.
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
    const TimeNs analytic = fast.IterationTime(schedule);
    const TimeNs simulated = sim.IterationTime(schedule);
    const int64_t analytic_peak = fast.PeakMemory(schedule);
    const int64_t simulated_peak = sim.PeakMemory(schedule);
    if (analytic != simulated || analytic_peak != simulated_peak) {
      fail(StrFormat("walk step %d: analytic %lld ns / %lld B, simulator "
                     "%lld ns / %lld B",
                     step, static_cast<long long>(analytic),
                     static_cast<long long>(analytic_peak),
                     static_cast<long long>(simulated),
                     static_cast<long long>(simulated_peak)));
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
    ValidationScope scope(&validator);
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
// inside a ValidationScope (SimEngine + Link events; the validator must stay
// clean) and outside it (the exact message-level executor). Every result
// field, the replay outcome and the event count must agree bit for bit.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
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
  // Unit-time mode drops layer 0's dO, which stalls PipeDream's in-flight
  // cap, so only flush strategies draw it.
  if (rng.NextBelow(4) == 0 && strategy != PipelineStrategy::kPipeDream) {
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
    ValidationScope scope(&validator);
    event = run();
  }
  if (!validator.ok()) {
    fail("event path: " + validator.Summary());
  }
  const Run exec = run();
  if (event.stats.executor || !exec.stats.executor) {
    fail("wrong producer (executor outside the validator, event path "
         "inside)");
  }

  const TrainMetrics& a = exec.result.metrics;
  const TrainMetrics& b = event.result.metrics;
  if (a.iteration_time != b.iteration_time ||
      !SameBits(a.throughput, b.throughput) ||
      !SameBits(a.gpu_utilization, b.gpu_utilization) ||
      !SameBits(a.comm_comp_ratio, b.comm_comp_ratio) ||
      a.peak_memory_bytes != b.peak_memory_bytes || a.oom != b.oom) {
    fail(StrFormat("executor metrics differ from the event path (iteration "
                   "%lld vs %lld, utilization %.17g vs %.17g, comm/comp "
                   "%.17g vs %.17g)",
                   static_cast<long long>(a.iteration_time),
                   static_cast<long long>(b.iteration_time),
                   a.gpu_utilization, b.gpu_utilization, a.comm_comp_ratio,
                   b.comm_comp_ratio));
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
  if (exec.stats.attempted != event.stats.attempted ||
      exec.stats.replayed != event.stats.replayed ||
      exec.stats.simulated_iterations != event.stats.simulated_iterations ||
      exec.stats.total_iterations != event.stats.total_iterations ||
      exec.stats.fallback_reason != event.stats.fallback_reason) {
    fail(StrFormat("replay outcome differs (replayed %d vs %d, simulated %d "
                   "vs %d, reason '%s' vs '%s')",
                   exec.stats.replayed, event.stats.replayed,
                   exec.stats.simulated_iterations,
                   event.stats.simulated_iterations,
                   exec.stats.fallback_reason.c_str(),
                   event.stats.fallback_reason.c_str()));
  }
  if (exec.events != event.events) {
    fail(StrFormat("executor counted %llu events, the event path %llu",
                   static_cast<unsigned long long>(exec.events),
                   static_cast<unsigned long long>(event.events)));
  }
}

}  // namespace

void FuzzOneSeed(uint64_t seed, bool include_serve, const std::string& checks,
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
      // the invariant validator, at a short length and at one long enough
      // to replay. The validator forces the event path; the same runs
      // outside it take the exact executor and must report the same
      // metrics, bit for bit, and the same replay outcome.
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
        ValidationScope scope(&validator);
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
      if (validator.kernels_finished() == 0) {
        fail("train run: validator observed no kernel completions");
      }
      if (validated[0][0].iteration_time <= 0 ||
          validated[0][1].iteration_time <= 0) {
        fail(StrFormat("non-positive iteration time (conventional %lld, ooo "
                       "%lld)",
                       static_cast<long long>(validated[0][0].iteration_time),
                       static_cast<long long>(validated[0][1].iteration_time)));
      }
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
          if (m.iteration_time != v.iteration_time ||
              std::memcmp(&m.throughput, &v.throughput, sizeof(double)) != 0 ||
              std::memcmp(&m.gpu_utilization, &v.gpu_utilization,
                          sizeof(double)) != 0 ||
              std::memcmp(&m.comm_comp_ratio, &v.comm_comp_ratio,
                          sizeof(double)) != 0 ||
              m.peak_memory_bytes != v.peak_memory_bytes || m.oom != v.oom) {
            fail(what + StrFormat("executor metrics differ from the event "
                                  "path (iteration %lld vs %lld, utilization "
                                  "%.17g vs %.17g)",
                                  static_cast<long long>(m.iteration_time),
                                  static_cast<long long>(v.iteration_time),
                                  m.gpu_utilization, v.gpu_utilization));
          }
          if (stats.attempted != vs.attempted ||
              stats.replayed != vs.replayed ||
              stats.simulated_iterations != vs.simulated_iterations ||
              stats.total_iterations != vs.total_iterations ||
              stats.fallback_reason != vs.fallback_reason) {
            fail(what + StrFormat("replay outcome differs (replayed %d vs %d, "
                                  "simulated %d vs %d, reason '%s' vs '%s')",
                                  stats.replayed, vs.replayed,
                                  stats.simulated_iterations,
                                  vs.simulated_iterations,
                                  stats.fallback_reason.c_str(),
                                  vs.fallback_reason.c_str()));
          }
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
  if (on("serve") && include_serve && seed % 4 == 0) {
    ServeFuzz(rng, seed, errors);
  }
  if (on("fleet") && include_serve && seed % 2 == 0) {
    FleetFuzz(rng, seed, errors);
  }
  if (on("search") && seed % 2 == 1) {
    SearchFuzz(rng, seed, errors);
  }
  if (on("pipeline")) {
    PipelineFuzz(seed, errors);
  }
}

void FuzzOneSeed(uint64_t seed, bool include_serve,
                 std::vector<std::string>* errors) {
  FuzzOneSeed(seed, include_serve, "*", errors);
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

  auto run_seed = [&options, &per_seed](size_t i) {
    const uint64_t seed = options.base_seed + static_cast<uint64_t>(i);
    FuzzOneSeed(seed, options.include_serve, options.checks, &per_seed[i]);
  };
  if (jobs <= 1) {
    for (size_t i = 0; i < n; ++i) {
      run_seed(i);
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back([&run_seed, &next, n] {
        while (true) {
          const size_t i = next.fetch_add(1);
          if (i >= n) {
            return;
          }
          run_seed(i);
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }

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
    } else if (arg == "--no-serve") {
      opts.include_serve = false;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: oobp fuzz [--seeds=N] [--base-seed=N] [--jobs=N]\n"
                   "                 [--checks=GLOBS] [--no-serve] "
                   "[--verbose]\n"
                   "  --jobs=N       seeds per thread pool; 0 = all cores\n"
                   "  --checks=GLOBS comma-separated globs over families\n"
                   "                 schedule,memory,train,dag,link,serve,"
                   "fleet,search,pipeline\n");
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

// Layer probes: direct calls into one component at a time, at the sizes the
// workloads drive it with. Each probe repeats its loop and reports the median
// host cost per unit of work (event, completion, kernel, chunk, evaluation).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "hostbench/bench.h"
#include "src/common/rng.h"
#include "src/hw/gpu.h"
#include "src/hw/link.h"
#include "src/nn/model_zoo.h"
#include "src/search/fast_eval.h"
#include "src/search/search.h"
#include "src/sim/engine.h"
#include "src/sim/fluid.h"

namespace hostbench {
namespace {

using namespace oobp;

constexpr int kRepeats = 5;

// Runs `body` kRepeats times; `body` returns the units of work it did.
template <typename Body>
double MedianNsPerUnit(const char* name, Layer layer, Body body) {
  Span span(name, layer);
  std::vector<double> per_unit;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const int64_t t0 = NowNs();
    const int64_t units = body();
    per_unit.push_back(static_cast<double>(NowNs() - t0) /
                       static_cast<double>(std::max<int64_t>(units, 1)));
  }
  return Median(per_unit);
}

// Hold model on the event heap: ~1000 pending events, each firing event
// schedules its successor, and every eighth one also arms and cancels a
// timer the way the fluid processor retracts stale wake-ups.
int64_t HeapHold() {
  constexpr int kPending = 1000;
  constexpr int64_t kEvents = 200000;
  SimEngine engine;
  Rng rng(42);
  int64_t fired = 0;
  struct Hold {
    SimEngine* engine;
    Rng* rng;
    int64_t* fired;
    void operator()() const {
      if (++*fired + kPending > kEvents) {
        return;
      }
      const Hold next = *this;
      engine->ScheduleAfter(1 + static_cast<TimeNs>(rng->NextBelow(1000)),
                            next);
      if (*fired % 8 == 0) {
        const SimEngine::TimerHandle h =
            engine->ScheduleAfter(500, [] {});
        engine->Cancel(h);
      }
    }
  };
  for (int i = 0; i < kPending; ++i) {
    engine.ScheduleAt(static_cast<TimeNs>(rng.NextBelow(1000)),
                      Hold{&engine, &rng, &fired});
  }
  engine.Run();
  return static_cast<int64_t>(engine.processed_events());
}

// Keeps `active` jobs on a GPU-sized fluid processor until `total` have
// completed: each completion adds the next job at its own priority.
int64_t FluidSteady(int active, int64_t total) {
  SimEngine engine;
  FluidProcessor proc(&engine, 5120.0);
  Rng rng(7);
  int64_t added = 0;
  int64_t completed = 0;
  struct Refill {
    FluidProcessor* proc;
    Rng* rng;
    int64_t* added;
    int64_t* completed;
    int64_t total;
    int priority;
    void operator()() const {
      ++*completed;
      if (*added < total) {
        ++*added;
        proc->Add(1e5 * (1.0 + rng->NextDouble()),
                  500.0 + 4000.0 * rng->NextDouble(), priority, *this);
      }
    }
  };
  for (int j = 0; j < active; ++j) {
    ++added;
    proc.Add(1e5 * (1.0 + rng.NextDouble()), 500.0 + 4000.0 * rng.NextDouble(),
             j, Refill{&proc, &rng, &added, &completed, total, j});
  }
  engine.Run();
  return completed;
}

// The 1000-way churn: every job added at once, drained to empty.
int64_t FluidChurn1000() {
  SimEngine engine;
  FluidProcessor proc(&engine, 1520.0);
  int64_t completed = 0;
  for (int i = 0; i < 1000; ++i) {
    proc.Add(1000.0 * (1 + i % 7), 100.0 + i % 400, i % 2,
             [&completed] { ++completed; });
  }
  engine.Run();
  return completed;
}

// Training-style kernel stream: alternating main/sub kernels where each sub
// kernel waits on the main kernel before it, all enqueued up front.
int64_t GpuMainSub() {
  constexpr int kKernels = 20000;
  SimEngine engine;
  Gpu gpu(&engine, GpuSpec::V100());
  const StreamId main_stream = gpu.CreateStream(0);
  const StreamId sub_stream = gpu.CreateStream(1);
  gpu.ReserveKernels(kKernels);
  KernelId last_main = -1;
  for (int i = 0; i < kKernels; ++i) {
    KernelDesc desc;
    desc.solo_duration = Us(5 + i % 40);
    desc.thread_blocks = 200.0 + 37.0 * (i % 50);
    if (i % 2 == 0) {
      last_main = gpu.Enqueue(main_stream, std::move(desc));
    } else {
      gpu.Enqueue(sub_stream, std::move(desc), &last_main, 1);
    }
  }
  engine.Run();
  return static_cast<int64_t>(gpu.kernels_completed());
}

// Chunked priority transfers: gradient-sized messages submitted over time
// at mixed priorities, so later urgent messages preempt bulk ones.
int64_t LinkChunks() {
  constexpr int kMessages = 400;
  constexpr int64_t kChunk = 1 << 20;
  SimEngine engine;
  Link link(&engine, LinkSpec::Eth25G(), kChunk);
  Rng rng(11);
  int64_t chunks = 0;
  for (int i = 0; i < kMessages; ++i) {
    const int64_t bytes = (1 + static_cast<int64_t>(rng.NextBelow(16))) *
                          kChunk / 2;
    const int priority = static_cast<int>(rng.NextBelow(50));
    chunks += (bytes + kChunk - 1) / kChunk;
    engine.ScheduleAt(Us(200) * i, [&link, bytes, priority] {
      link.Transfer(bytes, priority, "g", nullptr);
    });
  }
  engine.Run();
  return chunks;
}

}  // namespace

ProbeResults RunProbes() {
  ProbeResults out;
  out.heap_ns_per_event =
      MedianNsPerUnit("SimEngine hold", Layer::kSim, HeapHold);
  // One to three concurrent jobs: the streams a simulated GPU runs at once.
  out.fluid_ns_per_completion =
      MedianNsPerUnit("FluidProcessor 1-3 jobs", Layer::kSim, [] {
        return FluidSteady(1, 20000) + FluidSteady(2, 20000) +
               FluidSteady(3, 20000);
      });
  out.fluid_churn1000_ns_per_completion =
      MedianNsPerUnit("FluidProcessor churn 1000", Layer::kSim, FluidChurn1000);
  out.gpu_ns_per_kernel =
      MedianNsPerUnit("Gpu main/sub streams", Layer::kHw, GpuMainSub);
  out.link_ns_per_chunk =
      MedianNsPerUnit("Link chunked transfers", Layer::kHw, LinkChunks);

  // The analytic evaluator on DenseNet-121: one-gene mutations evaluated
  // incrementally by one instance, and the same candidates cold.
  const NnModel model = DenseNet(121, 24, 32, 32);
  const TrainGraph graph(&model);
  const GpuSpec gpu = GpuSpec::V100();
  const SystemProfile xla = SystemProfile::TensorFlowXla();
  std::vector<IterationSchedule> candidates;
  {
    Rng rng(3);
    Genotype genotype = ConventionalGenotype(graph);
    for (int i = 0; i < 200; ++i) {
      WgradGene& gene = genotype[rng.NextBelow(genotype.size())];
      const int lo = MinSlot(graph, gene.layer);
      const int hi = MaxSlot(graph, gene.layer);
      gene.slot = lo + static_cast<int>(rng.NextBelow(
                           static_cast<uint64_t>(hi - lo + 1)));
      gene.stream = static_cast<int>(rng.NextBelow(2));
      candidates.push_back(DecodeGenotype(graph, genotype));
    }
  }
  {
    // The instance's first (cold) evaluation is set-up, not timed.
    Span span("FastScheduleEvaluator incremental", Layer::kSearch);
    std::vector<double> per_eval;
    for (int rep = 0; rep < kRepeats; ++rep) {
      FastScheduleEvaluator eval(&model, gpu, xla);
      eval.IterationTime(ConventionalIteration(graph));
      const int64_t t0 = NowNs();
      for (const IterationSchedule& s : candidates) {
        eval.IterationTime(s);
      }
      per_eval.push_back(static_cast<double>(NowNs() - t0) /
                         static_cast<double>(candidates.size()));
    }
    out.eval_incremental_us = Median(per_eval) / 1e3;
  }
  out.eval_cold_us =
      MedianNsPerUnit("FastScheduleEvaluator cold", Layer::kSearch,
                      [&] {
                        for (const IterationSchedule& s : candidates) {
                          FastScheduleEvaluator eval(&model, gpu, xla);
                          eval.IterationTime(s);
                        }
                        return static_cast<int64_t>(candidates.size());
                      }) /
      1e3;
  return out;
}

}  // namespace hostbench

// Data-parallel training engine (Section 5.1 / Figure 10 systems).
//
// Simulates one representative worker of an n-GPU synchronous data-parallel
// job: the worker's GPU executes a backprop order, each completed weight
// gradient immediately enters the communication channel (wait-free
// backpropagation), and the next iteration's forward op F_i may only start
// once layer i's parameter synchronization finished. The channel models the
// worker's share of cluster bandwidth with the collective's volume factor:
//
//   * kHorovod  — ring all-reduce with fusion buffering: pending tensors are
//     flushed as one FIFO transfer when a cycle timer fires or the buffer
//     fills. No priorities, so early-layer gradients wait behind bulk data.
//   * kBytePS   — PS push+pull with tensor partitioning and priority
//     scheduling: transfers are chunked and preempted so the lowest-layer
//     (most critical) tensors go first. This is the strongest baseline.
//
// OOO-BytePS is kBytePS driven with a reverse-first-k backprop order
// (core/reverse_k.h) instead of the conventional one: same communication
// stack, reordered computation.

#ifndef OOBP_SRC_RUNTIME_DATA_PARALLEL_ENGINE_H_
#define OOBP_SRC_RUNTIME_DATA_PARALLEL_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/hw/cluster.h"
#include "src/nn/cost_model.h"
#include "src/nn/train_graph.h"
#include "src/runtime/metrics.h"
#include "src/trace/trace.h"

namespace oobp {

enum class CommScheme {
  kHorovod,
  kBytePS,
};

struct DataParallelConfig {
  ClusterSpec cluster;
  int num_gpus = 1;  // <= cluster.total_gpus()
  SystemProfile profile = SystemProfile::TensorFlow();
  CommScheme scheme = CommScheme::kBytePS;
  bool precompiled_issue = true;
  // Steady-state window after 1 warm-up. The executor steps until an
  // iteration boundary repeats (two iterations on the paper's clusters) and
  // extrapolates the rest, bit-identical to stepping them (DESIGN.md §9.2).
  int measured_iterations = 3;
  // Horovod fusion parameters.
  TimeNs fusion_cycle = Ms(5);
  int64_t fusion_buffer_bytes = 64LL << 20;
  // BytePS tensor partition size and the transport's non-preemptible commit
  // window (see hw/link.h).
  int64_t partition_bytes = 4LL << 20;
  int64_t commit_window_bytes = 256LL << 20;
  // Figure 4 unit-time toy mode: when > 0, every F/dO/dW op takes exactly
  // `unit_time` with no issue latency or kernel overhead, and each
  // parameterized layer's synchronization serializes for
  // `unit_sync_units * unit_time` on the channel (every layer carries the
  // same nominal volume). This reproduces the paper's unit-schedule
  // analysis, where per-layer sync time is comparable to per-layer compute.
  TimeNs unit_time = 0;
  double unit_sync_units = 2.0;
};

class DataParallelEngine {
 public:
  explicit DataParallelEngine(DataParallelConfig config);

  // Runs warm-up + measured iterations with the given backprop order (must
  // validate against the model's TrainGraph). Throughput is global
  // (samples/s across all workers). `trace`, when not null, is subscribed
  // to the observer list for the call: the GPU's stream is track 0 and the
  // channel track 100. An unobserved run takes an exact executor, which
  // stops at the first iteration boundary that repeats an earlier one; an
  // observed run takes the event simulation, which steps every iteration.
  // Both give the same metrics bit for bit (src/hw/observer.h, DESIGN.md
  // §6.3, §9.2). `replay_stats`, when not null, says which path ran and how
  // many iterations it stepped.
  TrainMetrics Run(const NnModel& model, const std::vector<TrainOp>& backprop,
                   TraceRecorder* trace = nullptr,
                   ReplayStats* replay_stats = nullptr) const;

  // Bytes layer i contributes to the channel per iteration (gradient size
  // times the collective volume factor).
  int64_t SyncVolume(const NnModel& model, int layer) const;
  // Effective per-worker channel bandwidth (GB/s) for this cluster slice.
  double ChannelBandwidthGbps() const;
  // Per-layer synchronization time if the channel were otherwise idle.
  TimeNs IdealSyncTime(const NnModel& model, int layer) const;

  const DataParallelConfig& config() const { return config_; }

 private:
  DataParallelConfig config_;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_DATA_PARALLEL_ENGINE_H_

// Simulated GPU device: priority streams feeding a fluid SM-slot processor.
//
// Kernels are enqueued onto streams at simulation time (the CpuLauncher does
// this with realistic per-op issue latency). Within a stream kernels execute
// strictly in order — CUDA stream semantics. A kernel starts once
//   (a) it reaches the head of its stream,
//   (b) every cross-stream dependency has completed (cudaStreamWaitEvent),
// then pays the per-kernel execution overhead (SM setup gap) and finally
// occupies up to `thread_blocks` SM slots until its work drains. Slots are
// shared with concurrently running kernels of other streams by priority
// (see sim/fluid.h), reproducing main-stream / sub-stream co-execution.

#ifndef OOBP_SRC_HW_GPU_H_
#define OOBP_SRC_HW_GPU_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/hw/gpu_spec.h"
#include "src/hw/observer.h"
#include "src/sim/engine.h"
#include "src/sim/fluid.h"

namespace oobp {

// Average SM-slot occupancy of a kernel with `blocks` thread blocks on a
// device with `capacity` slots. Thread blocks execute in ceil(blocks /
// capacity) waves, and the last wave runs partially empty — the "tail
// underutilization" of Section 2. A kernel with 1,600 blocks on a 1,520-slot
// device averages only 800 occupied slots, leaving room for a co-scheduled
// sub-stream kernel; one with an exact multiple of the capacity leaves none.
inline double EffectiveOccupancy(double blocks, double capacity) {
  const double waves = blocks <= capacity ? 1.0 : std::ceil(blocks / capacity);
  return blocks / waves;
}

struct KernelDesc {
  std::string name;
  std::string category;      // trace category: "fwd", "dO", "dW", ...
  TimeNs solo_duration = 0;  // execution time when run alone on the device
  double thread_blocks = 0;  // occupancy cap (SM slots the kernel can fill)
  std::vector<KernelId> deps;  // cross-stream dependencies (must be enqueued)
};

class Gpu {
 public:
  // Reports its kernel events to the observer list when built in an
  // observed run (src/hw/observer.h).
  Gpu(SimEngine* engine, GpuSpec spec);
  ~Gpu();
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  // Lower `priority` preempts higher in SM slot allocation.
  StreamId CreateStream(int priority);

  // Enqueues at the current simulation time; returns a handle usable as a
  // dependency of later kernels. Dependencies must already be enqueued.
  KernelId Enqueue(StreamId stream, KernelDesc desc);

  // Same, with dependencies passed as a span instead of desc.deps. A caller
  // issuing many kernels can reuse one scratch buffer; the ids are consumed
  // during the call and not retained.
  KernelId Enqueue(StreamId stream, KernelDesc desc, const KernelId* deps,
                   size_t num_deps);

  // Pre-sizes the kernel table for `n` further Enqueue calls (optional; a
  // launcher that knows its sequence length avoids repeated regrowth of the
  // per-kernel records).
  void ReserveKernels(size_t n) { kernels_.reserve(kernels_.size() + n); }

  bool Done(KernelId id) const;
  // Completion timestamp; kernel must be done.
  TimeNs CompletionTime(KernelId id) const;
  // Execution start timestamp (after the per-kernel setup gap); the kernel
  // must have started. The serving metrics use start/completion pairs to
  // separate queueing from contended execution time.
  TimeNs StartTime(KernelId id) const;

  // Called once per kernel completion, after internal bookkeeping; multiple
  // listeners run in registration order.
  void AddKernelDoneListener(std::function<void(KernelId)> cb) {
    done_listeners_.push_back(std::move(cb));
  }

  const GpuSpec& spec() const { return spec_; }
  int num_streams() const { return static_cast<int>(streams_.size()); }
  size_t kernels_completed() const { return completed_; }

  // SM-slot busy integral (slot-ns); divide by capacity * elapsed for
  // utilization.
  double SmBusyIntegral() const { return slots_.busy_integral(); }

  // Records every SM busy-integral increment (see FluidProcessor::
  // set_busy_recorder); used by the steady-state replay optimization to
  // re-fold the exact utilization of an extrapolated run.
  void SetBusyRecorder(std::vector<BusyIncrement>* recorder) {
    slots_.set_busy_recorder(recorder);
  }

 private:
  struct Kernel {
    KernelDesc desc;
    StreamId stream = 0;
    TimeNs start_time = -1;  // after setup overhead
    TimeNs done_time = -1;
    bool started = false;
    bool done = false;
    int deps_pending = 0;
    // Kernels waiting on this one. Nearly every kernel has exactly one
    // dependent (its stream successor's cross-stream wait), so the first is
    // stored inline and only the rare extras hit the heap.
    KernelId first_dependent = -1;
    std::vector<KernelId> more_dependents;

    void AddDependent(KernelId id) {
      if (first_dependent < 0) {
        first_dependent = id;
      } else {
        more_dependents.push_back(id);
      }
    }
  };
  struct Stream {
    int priority = 0;
    std::deque<KernelId> queue;  // head is next to run
    bool head_dispatched = false;
  };

  // Starts the stream head if it is ready; otherwise waits for deps.
  void MaybeDispatch(StreamId stream);
  void BeginExecution(KernelId id);
  void FinishKernel(KernelId id);
  // What observers hear of kernel `id` now.
  KernelEvent Observed(KernelId id) const;

  SimEngine* engine_;
  GpuSpec spec_;
  FluidProcessor slots_;
  std::vector<Stream> streams_;
  std::vector<Kernel> kernels_;
  size_t completed_ = 0;
  std::vector<std::function<void(KernelId)>> done_listeners_;
  int device_ = -1;
  const ObserverList* observers_;  // null in an unobserved run
};

}  // namespace oobp

#endif  // OOBP_SRC_HW_GPU_H_

// CPU-side kernel issue model (the deep learning framework's executor).
//
// Deep learning systems traverse the computation graph on the host and
// asynchronously issue GPU kernels; when per-kernel issue latency exceeds
// kernel execution time the GPU starves (Section 2, Figures 1 and 2). The
// launcher models two regimes:
//  * kPerOp      — each kernel costs its own host issue latency, issued
//                  back-to-back by a single executor thread (TensorFlow /
//                  PyTorch / MXNet executors);
//  * kPrecompiled — the whole sequence was captured into an executable graph
//                  and is enqueued after one small graph-launch latency
//                  (CUDA Graph API; the paper's "pre-compiled kernel issue",
//                  also used by Nimble).

#ifndef OOBP_SRC_HW_CPU_LAUNCHER_H_
#define OOBP_SRC_HW_CPU_LAUNCHER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/hw/gpu.h"
#include "src/hw/observer.h"
#include "src/sim/engine.h"

namespace oobp {

// One kernel to issue. Dependencies are expressed as indices into the issue
// sequence (they must point at earlier items); the launcher resolves them to
// KernelIds at enqueue time. Dependencies are stored inline (a kernel waits
// on at most a handful of events), so building an issue sequence performs no
// per-item allocation.
struct IssueItem {
  static constexpr int kMaxDeps = 4;

  StreamId stream = 0;
  std::string name;
  std::string category;
  TimeNs solo_duration = 0;
  double thread_blocks = 1.0;
  size_t dep_items[kMaxDeps];
  int num_deps = 0;
  TimeNs issue_latency = 0;  // host-side cost to issue this kernel (kPerOp)

  void AddDep(size_t item_index) {
    OOBP_CHECK_LT(num_deps, kMaxDeps);
    dep_items[num_deps++] = item_index;
  }
};

class CpuLauncher {
 public:
  enum class Mode {
    kPerOp,
    kPrecompiled,
  };

  // `max_outstanding` bounds how many issued-but-unfinished kernels the
  // executor may have in flight in kPerOp mode (0 = unbounded): real
  // framework executors only run a bounded distance ahead of the GPU, which
  // is why issue latency becomes visible in short-kernel regions (Figure 2).
  // Built in an observed run (src/hw/observer.h), the launcher reports each
  // issue, or the graph launch, as a span.
  CpuLauncher(SimEngine* engine, Gpu* gpu, Mode mode,
              TimeNs graph_launch_latency = Us(5), int max_outstanding = 0);

  // Starts issuing `items` at the current simulation time. `on_issued(i, id)`
  // reports the KernelId assigned to item i; `on_all_issued` fires when the
  // executor thread finishes the sequence. At most one Launch may be active.
  void Launch(std::vector<IssueItem> items,
              std::function<void(size_t, KernelId)> on_issued = nullptr,
              std::function<void()> on_all_issued = nullptr);

  // Host time spent issuing during the last (or current) launch.
  TimeNs issue_busy_time() const { return issue_busy_; }

 private:
  void IssueNext();
  KernelId EnqueueItem(size_t index);
  // Reports the issue span that ends now.
  void ReportIssue(std::string_view name, TimeNs latency) const;

  SimEngine* engine_;
  Gpu* gpu_;
  Mode mode_;
  TimeNs graph_launch_latency_;
  int max_outstanding_;
  int device_ = -1;
  const ObserverList* observers_;  // null in an unobserved run

  bool active_ = false;
  bool blocked_on_queue_ = false;
  int in_flight_ = 0;
  size_t next_index_ = 0;
  TimeNs issue_busy_ = 0;
  std::vector<IssueItem> items_;
  std::vector<KernelId> item_kernel_ids_;
  std::function<void(size_t, KernelId)> on_issued_;
  std::function<void()> on_all_issued_;
};

}  // namespace oobp

#endif  // OOBP_SRC_HW_CPU_LAUNCHER_H_

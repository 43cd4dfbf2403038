#include "src/hw/cpu_launcher.h"

#include <utility>

#include "src/common/check.h"

namespace oobp {

CpuLauncher::CpuLauncher(SimEngine* engine, Gpu* gpu, Mode mode,
                         TimeNs graph_launch_latency, int max_outstanding)
    : engine_(engine),
      gpu_(gpu),
      mode_(mode),
      graph_launch_latency_(graph_launch_latency),
      max_outstanding_(max_outstanding),
      observers_(RegisterDevice(&device_)) {
  OOBP_CHECK(engine != nullptr);
  OOBP_CHECK(gpu != nullptr);
  OOBP_CHECK_GE(max_outstanding, 0);
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnTimelineCreated, device_);
  }
  gpu_->AddKernelDoneListener([this](KernelId) {
    if (in_flight_ > 0) {
      --in_flight_;
    }
    if (blocked_on_queue_ && in_flight_ < max_outstanding_) {
      blocked_on_queue_ = false;
      IssueNext();
    }
  });
}

void CpuLauncher::Launch(std::vector<IssueItem> items,
                         std::function<void(size_t, KernelId)> on_issued,
                         std::function<void()> on_all_issued) {
  OOBP_CHECK(!active_) << "a launch is already in progress";
  active_ = true;
  next_index_ = 0;
  issue_busy_ = 0;
  items_ = std::move(items);
  item_kernel_ids_.assign(items_.size(), -1);
  gpu_->ReserveKernels(items_.size());
  on_issued_ = std::move(on_issued);
  on_all_issued_ = std::move(on_all_issued);

  if (mode_ == Mode::kPrecompiled) {
    // One graph launch enqueues the entire captured sequence.
    issue_busy_ = graph_launch_latency_;
    engine_->ScheduleAfter(graph_launch_latency_, [this] {
      if (observers_ != nullptr && !items_.empty()) {
        ReportIssue("graph_launch", graph_launch_latency_);
      }
      for (size_t i = 0; i < items_.size(); ++i) {
        EnqueueItem(i);
      }
      active_ = false;
      if (on_all_issued_) {
        on_all_issued_();
      }
    });
    return;
  }
  IssueNext();
}

void CpuLauncher::IssueNext() {
  if (next_index_ >= items_.size()) {
    active_ = false;
    if (on_all_issued_) {
      on_all_issued_();
    }
    return;
  }
  if (max_outstanding_ > 0 && in_flight_ >= max_outstanding_) {
    blocked_on_queue_ = true;  // resume from the kernel-done listener
    return;
  }
  const size_t index = next_index_++;
  const TimeNs latency = items_[index].issue_latency;
  issue_busy_ += latency;
  engine_->ScheduleAfter(latency, [this, index, latency] {
    if (observers_ != nullptr) {
      ReportIssue("issue:" + items_[index].name, latency);
    }
    EnqueueItem(index);
    IssueNext();
  });
}

void CpuLauncher::ReportIssue(std::string_view name, TimeNs latency) const {
  Notify(*observers_, &DeviceObserver::OnSpan,
         Span{.timeline = device_, .start = engine_->now() - latency,
              .duration = latency, .name = name, .category = "issue"});
}

KernelId CpuLauncher::EnqueueItem(size_t index) {
  IssueItem& item = items_[index];
  KernelDesc desc;
  // The item is never read again after this call (any issue span naming it
  // was reported by the caller first), so its labels can be stolen.
  desc.name = std::move(item.name);
  desc.category = std::move(item.category);
  desc.solo_duration = item.solo_duration;
  desc.thread_blocks = item.thread_blocks;
  KernelId deps[IssueItem::kMaxDeps];
  for (int d = 0; d < item.num_deps; ++d) {
    const size_t dep = item.dep_items[d];
    OOBP_CHECK_LT(dep, index) << "dependency must precede dependent in issue order";
    OOBP_CHECK_GE(item_kernel_ids_[dep], 0);
    deps[d] = item_kernel_ids_[dep];
  }
  const KernelId id = gpu_->Enqueue(item.stream, std::move(desc), deps,
                                    static_cast<size_t>(item.num_deps));
  ++in_flight_;
  item_kernel_ids_[index] = id;
  if (on_issued_) {
    on_issued_(index, id);
  }
  return id;
}

}  // namespace oobp

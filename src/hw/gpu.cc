#include "src/hw/gpu.h"

#include <algorithm>
#include <utility>

namespace oobp {

Gpu::Gpu(SimEngine* engine, GpuSpec spec)
    : engine_(engine),
      spec_(std::move(spec)),
      slots_(engine, static_cast<double>(spec_.slot_capacity())),
      observers_(RegisterDevice(&device_)) {
  OOBP_CHECK(engine != nullptr);
  OOBP_CHECK_GT(spec_.slot_capacity(), 0);
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnGpuCreated, device_,
           engine_->now(), spec_);
  }
}

Gpu::~Gpu() {
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnGpuDestroyed, device_,
           engine_->now(), slots_.busy_integral());
  }
}

StreamId Gpu::CreateStream(int priority) {
  Stream s;
  s.priority = priority;
  streams_.push_back(std::move(s));
  return static_cast<StreamId>(streams_.size() - 1);
}

KernelId Gpu::Enqueue(StreamId stream, KernelDesc desc) {
  // desc.deps survives the move below (the buffer travels with the vector),
  // so the span stays valid for the duration of the call.
  const KernelId* deps = desc.deps.data();
  const size_t num_deps = desc.deps.size();
  return Enqueue(stream, std::move(desc), deps, num_deps);
}

KernelId Gpu::Enqueue(StreamId stream, KernelDesc desc, const KernelId* deps,
                      size_t num_deps) {
  OOBP_CHECK_GE(stream, 0);
  OOBP_CHECK_LT(stream, static_cast<StreamId>(streams_.size()));
  OOBP_CHECK_GE(desc.solo_duration, 0);
  OOBP_CHECK_GT(desc.thread_blocks, 0.0);

  const KernelId id = static_cast<KernelId>(kernels_.size());
  Kernel k;
  k.stream = stream;
  for (size_t d = 0; d < num_deps; ++d) {
    const KernelId dep = deps[d];
    OOBP_CHECK_GE(dep, 0);
    OOBP_CHECK_LT(dep, id) << "dependencies must be enqueued before dependents";
    if (!kernels_[dep].done) {
      ++k.deps_pending;
      kernels_[dep].AddDependent(id);
    }
  }
  k.desc = std::move(desc);
  kernels_.push_back(std::move(k));
  streams_[stream].queue.push_back(id);
  MaybeDispatch(stream);
  if (observers_ != nullptr) {
    KernelEvent e = Observed(id);
    e.deps = {deps, num_deps};
    Notify(*observers_, &DeviceObserver::OnKernelEnqueued, e);
  }
  return id;
}

bool Gpu::Done(KernelId id) const {
  OOBP_CHECK_GE(id, 0);
  OOBP_CHECK_LT(id, static_cast<KernelId>(kernels_.size()));
  return kernels_[id].done;
}

TimeNs Gpu::CompletionTime(KernelId id) const {
  OOBP_CHECK(Done(id));
  return kernels_[id].done_time;
}

TimeNs Gpu::StartTime(KernelId id) const {
  OOBP_CHECK_GE(id, 0);
  OOBP_CHECK_LT(id, static_cast<KernelId>(kernels_.size()));
  OOBP_CHECK(kernels_[id].started);
  return kernels_[id].start_time;
}

KernelEvent Gpu::Observed(KernelId id) const {
  const Kernel& k = kernels_[id];
  return {.gpu = device_, .now = engine_->now(), .id = id, .stream = k.stream,
          .solo_duration = k.desc.solo_duration,
          .allocated_rate = slots_.allocated_rate(), .start = k.start_time,
          .name = k.desc.name, .category = k.desc.category};
}

void Gpu::MaybeDispatch(StreamId stream) {
  Stream& s = streams_[stream];
  if (s.head_dispatched || s.queue.empty()) {
    return;
  }
  const KernelId id = s.queue.front();
  Kernel& k = kernels_[id];
  if (k.deps_pending > 0) {
    return;  // FinishKernel of the last dependency re-triggers dispatch
  }
  s.head_dispatched = true;
  // Per-kernel SM setup gap before the kernel occupies slots.
  engine_->ScheduleAfter(spec_.kernel_exec_overhead,
                         [this, id] { BeginExecution(id); });
}

void Gpu::BeginExecution(KernelId id) {
  Kernel& k = kernels_[id];
  k.started = true;
  k.start_time = engine_->now();
  const double max_rate = EffectiveOccupancy(
      k.desc.thread_blocks, static_cast<double>(spec_.slot_capacity()));
  // A kernel running alone progresses at `max_rate` slots, so its total work
  // in slot-ns equals solo_duration * max_rate.
  const double work = static_cast<double>(k.desc.solo_duration) * max_rate;
  const int priority = streams_[k.stream].priority;
  slots_.Add(work, max_rate, priority, [this, id] { FinishKernel(id); });
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnKernelStarted, Observed(id));
  }
}

void Gpu::FinishKernel(KernelId id) {
  // Callbacks below (dependents, on_kernel_done_) may Enqueue new kernels and
  // reallocate kernels_, so copy everything needed out of the record first.
  StreamId stream;
  KernelId first_dependent;
  std::vector<KernelId> more_dependents;
  {
    Kernel& k = kernels_[id];
    k.done = true;
    k.done_time = engine_->now();
    ++completed_;
    stream = k.stream;
    // The dependent list is never read again once the kernel is done (later
    // Enqueues see k.done and skip it), so steal it instead of copying.
    first_dependent = k.first_dependent;
    more_dependents = std::move(k.more_dependents);

    if (observers_ != nullptr) {
      Notify(*observers_, &DeviceObserver::OnKernelFinished, Observed(id));
    }
  }

  Stream& s = streams_[stream];
  OOBP_CHECK(!s.queue.empty());
  OOBP_CHECK_EQ(s.queue.front(), id);
  s.queue.pop_front();
  s.head_dispatched = false;

  // Wake dependents whose last dependency this was.
  const auto wake = [this](KernelId dep_id) {
    Kernel& d = kernels_[dep_id];
    OOBP_CHECK_GT(d.deps_pending, 0);
    if (--d.deps_pending == 0) {
      MaybeDispatch(d.stream);
    }
  };
  if (first_dependent >= 0) {
    wake(first_dependent);
  }
  for (KernelId dep_id : more_dependents) {
    wake(dep_id);
  }
  for (const auto& listener : done_listeners_) {
    listener(id);
  }
  MaybeDispatch(stream);
}

}  // namespace oobp

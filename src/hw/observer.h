// The one way to observe a simulated run: a thread-local list of device
// observers (DESIGN.md §8.1).
//
// Every device (Gpu, Link, CpuLauncher) and the pipeline model's op
// timeline checks the list when it is built. If the list is empty the
// device keeps a null pointer, and each of its events tests only that
// pointer. Otherwise the device takes a fresh id, announces itself, and
// reports every event to each subscriber, in subscription order. A callback
// carries the time and every value a subscriber reads, so no subscriber
// calls back into a device. The validator (src/validate) and the trace
// recorder (src/trace) subscribe through ObserverScope, alone or together.
//
// The observed-run rule, stated once: a run is observed when the calling
// thread's list is non-empty (RunIsObserved). An observed run takes its
// engine's event path, the only producer that builds devices, and steps
// every iteration; an unobserved run takes the engine's exact executor,
// which may stop stepping at a repeated iteration boundary (DESIGN.md §6.3,
// §9.2). The single-GPU, data-parallel and pipeline engines and the
// serving replica driver choose by this predicate alone.
//
// The list is thread-local because the scenario runner and the fuzzer run
// on a worker pool: each simulation is single-threaded, so two concurrent
// runs are observed independently.

#ifndef OOBP_SRC_HW_OBSERVER_H_
#define OOBP_SRC_HW_OBSERVER_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/time.h"

namespace oobp {

struct GpuSpec;
struct LinkSpec;

using StreamId = int;
using KernelId = int64_t;

// A kernel event of a Gpu.
struct KernelEvent {
  int gpu = 0;  // the id the Gpu announced itself with
  TimeNs now = 0;
  KernelId id = 0;
  StreamId stream = 0;
  TimeNs solo_duration = 0;
  double allocated_rate = 0.0;  // the Gpu's allocated SM slot rate
  TimeNs start = -1;  // when its execution began; -1 before
  std::string_view name = {};
  std::string_view category = {};
  // Enqueue only: the resolved dependencies.
  std::span<const KernelId> deps = {};
};

// A transfer event of a Link.
struct TransferEvent {
  int link = 0;  // the id the Link announced itself with
  TimeNs now = 0;
  int64_t id = 0;
  int64_t bytes = 0;
  // Completion only: when its first chunk started, the link's busy time so
  // far, and its label.
  TimeNs first_start = -1;
  TimeNs busy_time = 0;
  std::string_view name = {};
};

// A labelled interval of a timeline: a CpuLauncher issue (lane 0) or a
// pipeline op (lane = the pipeline GPU).
struct Span {
  int timeline = 0;  // the id the timeline announced itself with
  int lane = 0;
  TimeNs start = 0;
  TimeNs duration = 0;
  std::string_view name = {};
  std::string_view category = {};
};

// A subscriber. Callbacks fire after the device's own bookkeeping for the
// event; every view and span in an event is valid only during the call.
// A device announces itself (the On*Created calls, with its id) before it
// reports anything else.
class DeviceObserver {
 public:
  virtual ~DeviceObserver() = default;

  virtual void OnGpuCreated(int /*gpu*/, TimeNs /*now*/, const GpuSpec&) {}
  virtual void OnKernelEnqueued(const KernelEvent&) {}
  virtual void OnKernelStarted(const KernelEvent&) {}
  virtual void OnKernelFinished(const KernelEvent&) {}
  // `busy_integral` is the Gpu's SM-slot busy integral over its life.
  virtual void OnGpuDestroyed(int /*gpu*/, TimeNs /*now*/,
                              double /*busy_integral*/) {}

  virtual void OnLinkCreated(int /*link*/, TimeNs /*now*/, const LinkSpec&) {}
  virtual void OnTransferSubmitted(const TransferEvent&) {}
  virtual void OnTransferCompleted(const TransferEvent&) {}

  virtual void OnTimelineCreated(int /*timeline*/) {}
  virtual void OnSpan(const Span&) {}
};

using ObserverList = std::vector<DeviceObserver*>;

// The observed-run rule (see above): true when a subscriber is listening on
// the calling thread.
bool RunIsObserved();

// Calls `callback` with `args` on every subscriber in `list`, in order.
template <typename Callback, typename... Args>
void Notify(const ObserverList& list, Callback callback, const Args&... args) {
  for (DeviceObserver* o : list) {
    (o->*callback)(args...);
  }
}

// For a device being built: when the run is observed, sets `*id` to a fresh
// device id and returns the calling thread's list, which the device keeps
// and reports to for its life; otherwise returns nullptr. The device then
// announces itself to the list before it reports anything else.
const ObserverList* RegisterDevice(int* id);

// Subscribes `observer` to the calling thread's list for the scope's life;
// a null observer subscribes nothing. Scopes must nest. Devices report to
// the subscribers of the moment, so an observer only has to outlive its
// scope.
class ObserverScope {
 public:
  explicit ObserverScope(DeviceObserver* observer);
  ~ObserverScope();
  ObserverScope(const ObserverScope&) = delete;
  ObserverScope& operator=(const ObserverScope&) = delete;

 private:
  DeviceObserver* observer_;
};

}  // namespace oobp

#endif  // OOBP_SRC_HW_OBSERVER_H_

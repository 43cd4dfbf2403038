// Discrete-event simulation engine.
//
// A single-threaded event queue ordered by (time, sequence number). The
// sequence number makes same-timestamp processing order deterministic, which
// in turn makes every experiment in this repository bit-reproducible.
//
// Implementation: an indexed 4-ary min-heap of 24-byte (time, seq, slot)
// entries over a slab of event slots. Callbacks live in the slab with inline
// small-buffer storage (SmallCallback), so scheduling an ordinary capture
// performs no heap allocation, popping moves the callback out exactly once
// (the old std::priority_queue's const top() forced a deep copy per event),
// and sift operations shuffle PODs only. Each slot carries its heap position,
// which is what makes O(log n) cancellation of an arbitrary pending event —
// TimerHandle / Cancel() — possible; the fluid processor uses that to retract
// stale wake-ups instead of flooding the queue with dead events.

#ifndef OOBP_SRC_SIM_ENGINE_H_
#define OOBP_SRC_SIM_ENGINE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/sim/small_callback.h"

namespace oobp {

class SimEngine {
 public:
  using Callback = SmallCallback;

  // Identifies a scheduled event for cancellation. Value-copyable; a handle
  // is invalidated (Cancel returns false) once its event fires or is
  // cancelled. A default-constructed handle refers to no event.
  class TimerHandle {
   public:
    TimerHandle() = default;

   private:
    friend class SimEngine;
    TimerHandle(uint32_t slot, uint64_t seq) : slot_(slot), seq_(seq) {}
    uint32_t slot_ = 0;
    uint64_t seq_ = 0;  // 0 = no event (live events have seq >= 1)
  };

  SimEngine() = default;
  ~SimEngine();
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  TimeNs now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  uint64_t processed_events() const { return processed_; }
  size_t pending_events() const { return heap_.size(); }

  // Pre-sizes the heap and callback slab for `n` concurrently pending
  // events, eliminating mid-run growth reallocations. Capacity only — has
  // no effect on event ordering or results.
  void Reserve(size_t n) {
    heap_.reserve(n);
    slots_.reserve(n);
  }

  // Total slab slots ever allocated (live + free-listed); a sequence of
  // schedule/fire/cancel cycles that keeps pending_events bounded must keep
  // this bounded too, or slots are leaking.
  size_t slab_slots() const { return slots_.size(); }

  // Process-wide count of events processed by engines that have been
  // destroyed (each engine flushes its tally in its destructor). The tally
  // is an atomic: engines may be destroyed concurrently on sharded-sim
  // worker threads or the bench/fuzz pools. The perf harness reads deltas
  // of this around scenario runs; simulation results never depend on it.
  static uint64_t TotalProcessedEvents();

  // Adds `events` to that tally on behalf of a simulation that processes
  // its events without an engine (the single-GPU executor, DESIGN.md §6.3),
  // so event counts do not depend on which producer ran.
  static void AddProcessedEvents(uint64_t events);

  // Schedules `cb` at absolute time `t`; `t` must not be in the past. The
  // returned handle may be ignored, or kept to Cancel() the event later.
  TimerHandle ScheduleAt(TimeNs t, Callback cb);

  TimerHandle ScheduleAfter(TimeNs delay, Callback cb) {
    OOBP_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  // Removes a pending event; its callback is destroyed without running.
  // Returns false (and does nothing) if the event already fired, was already
  // cancelled, or the handle is default-constructed.
  bool Cancel(TimerHandle handle);

  // Processes events in timestamp order while the next event's time is
  // <= `limit`. Returns the number of events processed by this call.
  //
  // Clock semantics: with a finite `limit` the clock always ends at exactly
  // `limit` — whether the queue drained below it or the next event lies
  // beyond it — so back-to-back Run(t0), Run(t1) calls observe contiguous
  // simulated intervals. With the default (infinite) limit the clock rests
  // at the last processed event's timestamp.
  uint64_t Run(TimeNs limit = std::numeric_limits<TimeNs>::max());

  // Processes a single event if one exists. Returns false on an empty queue.
  bool Step();

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  // Heap entries are self-contained PODs so comparisons and sifts never
  // touch the slab.
  struct HeapEntry {
    TimeNs time;
    uint64_t seq;
    uint32_t slot;
  };
  struct EventSlot {
    Callback cb;
    uint64_t seq = 0;
    uint32_t heap_pos = kNone;  // kNone when the slot is free
    uint32_t next_free = kNone;
  };

  static bool EarlierThan(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  void SiftUp(size_t pos, HeapEntry entry);
  void SiftDown(size_t pos, HeapEntry entry);
  void RemoveHeapEntry(size_t pos);

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;  // 0 is reserved for null TimerHandles
  uint64_t processed_ = 0;
  std::vector<HeapEntry> heap_;   // 4-ary min-heap by (time, seq)
  std::vector<EventSlot> slots_;  // callback slab, free-listed
  uint32_t free_head_ = kNone;
};

}  // namespace oobp

#endif  // OOBP_SRC_SIM_ENGINE_H_

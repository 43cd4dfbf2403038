// The pieces the exact executors share.
//
// The single-GPU executor (TwoStreamExecutor, train_sim.h), the data-parallel
// executor (data_parallel_engine.cc) and the serving executor
// (src/serve/replica_driver.cc) each run a closed model in which every kind
// of event has a bounded number of pending instances. They keep those events
// in fixed slots (EventSlots, or per-replica slots in the serving executor)
// and step the GPU's kernels through one fluid model (StreamFluid),
// reproducing the event path's SimEngine, Gpu and FluidProcessor bit for bit
// (DESIGN.md §6.3).

#ifndef OOBP_SRC_RUNTIME_SLOT_EXECUTOR_H_
#define OOBP_SRC_RUNTIME_SLOT_EXECUTOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/time.h"
#include "src/hw/gpu.h"
#include "src/sim/fluid.h"

namespace oobp {

// One pending event per slot, run in SimEngine's (time, seq) order: a
// sequence number is drawn wherever the event path calls ScheduleAt, so
// same-nanosecond events run in the order SimEngine runs them.
template <int kSlots>
class EventSlots {
 public:
  TimeNs now() const { return now_; }
  // Events stepped so far: the event path's processed_events().
  uint64_t processed() const { return processed_; }

  // SimEngine::ScheduleAt, into an empty slot.
  void Schedule(int slot, TimeNs t) {
    OOBP_CHECK_GE(t, now_) << "event scheduled in the past";
    OOBP_CHECK_EQ(events_[slot].seq, 0u) << "slot " << slot << " is taken";
    events_[slot] = Event{t, next_seq_++};
  }

  // SimEngine::Cancel of the slot's pending event, if any, then Schedule at
  // `t` unless `t` is negative: FluidProcessor::Reallocate's wake-up.
  void Reschedule(int slot, TimeNs t) {
    events_[slot].seq = 0;
    if (t >= 0) {
      Schedule(slot, t);
    }
  }

  // Takes the event SimEngine would step next, moves the clock to it and
  // returns its slot; -1 when no event is pending.
  int Next() {
    int e = -1;
    for (int slot = 0; slot < kSlots; ++slot) {
      if (events_[slot].seq != 0 &&
          (e < 0 || events_[slot].time < events_[e].time ||
           (events_[slot].time == events_[e].time &&
            events_[slot].seq < events_[e].seq))) {
        e = slot;
      }
    }
    if (e >= 0) {
      now_ = events_[e].time;
      events_[e].seq = 0;
      ++processed_;
    }
    return e;
  }

  // Whether the pending events, seen from now(), are the ones `earlier` held
  // seen from its now(): the same slots, delays and order. Only the order of
  // equal-time events is compared, and only among pending ones: every later
  // draw exceeds every pending sequence number.
  bool SameAhead(const EventSlots& earlier) const {
    for (int a = 0; a < kSlots; ++a) {
      const Event& x = events_[a];
      const Event& y = earlier.events_[a];
      if ((x.seq != 0) != (y.seq != 0) ||
          (x.seq != 0 && x.time - now_ != y.time - earlier.now_)) {
        return false;
      }
      for (int b = 0; b < a && x.seq != 0; ++b) {
        if (events_[b].seq != 0 && events_[b].time == x.time &&
            (events_[b].seq < x.seq) != (earlier.events_[b].seq < y.seq)) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  struct Event {
    TimeNs time = 0;
    uint64_t seq = 0;  // 0 = slot empty
  };

  Event events_[kSlots];
  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
};

// Gpu::BeginExecution and FluidProcessor for a GPU whose streams each run at
// most one kernel at a time, stream s at priority s. Every step performs the
// event path's floating-point operations in its order: rates handed out
// priority-greedily, min(rate * dt, remaining) contributions folded into the
// busy integral in job-seq order, the kWorkEpsilon drain test, and
// FluidProcessor::WakeDelay. Begin and Wake return the time of the wake-up
// the event path would schedule after retracting the pending one, or -1 when
// no job is fed; the caller keeps that event (EventSlots::Reschedule). Jobs
// drained by a step are passed to `finish(item)` in job-seq order, after the
// table is updated.
template <int kStreams>
class StreamFluid {
 public:
  // `recorder`, when not null, receives every nonzero busy increment
  // (FluidProcessor::set_busy_recorder).
  StreamFluid(double capacity, std::vector<BusyIncrement>* recorder)
      : capacity_(capacity), recorder_(recorder) {
    OOBP_CHECK_GT(capacity, 0.0);
  }

  // A kernel's fluid job as Gpu::BeginExecution sizes it.
  struct Demand {
    double max_rate = 0.0;
    double work = 0.0;  // solo duration * max_rate
  };
  Demand DemandOf(TimeNs solo_duration, double thread_blocks) const {
    const double max_rate = EffectiveOccupancy(thread_blocks, capacity_);
    const Demand demand{max_rate,
                        static_cast<double>(solo_duration) * max_rate};
    OOBP_CHECK_GE(demand.work, 0.0);
    OOBP_CHECK_GT(demand.max_rate, 0.0);
    return demand;
  }

  // Stream s's kernel `item`, sized by DemandOf, leaves its setup gap at
  // `now` and starts draining: Gpu::BeginExecution + FluidProcessor::Add.
  template <typename Finish>
  TimeNs Begin(int s, int item, const Demand& demand, TimeNs now,
               Finish&& finish) {
    Advance(now, finish);
    Job& job = jobs_[s];
    OOBP_CHECK(!job.active);
    job = Job{true, demand.work, demand.max_rate, 0.0, next_job_seq_++, item};
    return Reallocate(now);
  }

  // The wake-up event: FluidProcessor::Advance + Reallocate.
  template <typename Finish>
  TimeNs Wake(TimeNs now, Finish&& finish) {
    Advance(now, finish);
    return Reallocate(now);
  }

  double busy_integral() const { return busy_integral_; }

  // No kernel is draining. Nothing else of the table reaches the future
  // then: the next Begin starts afresh from its own time.
  bool idle() const {
    for (const Job& job : jobs_) {
      if (job.active) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Job {
    bool active = false;
    double remaining = 0.0;
    double max_rate = 0.0;
    double rate = 0.0;
    uint64_t seq = 0;
    int item = -1;
  };

  // FluidProcessor::Advance.
  template <typename Finish>
  void Advance(TimeNs now, Finish& finish) {
    OOBP_CHECK_GE(now, last_update_);
    const double dt = static_cast<double>(now - last_update_);
    last_update_ = now;
    // Active streams in job-seq order.
    int order[kStreams];
    int active = 0;
    for (int s = 0; s < kStreams; ++s) {
      if (jobs_[s].active) {
        int k = active++;
        for (; k > 0 && jobs_[order[k - 1]].seq > jobs_[s].seq; --k) {
          order[k] = order[k - 1];
        }
        order[k] = s;
      }
    }
    if (dt > 0.0) {
      double contrib[kStreams];
      for (int k = 0; k < active; ++k) {
        Job& job = jobs_[order[k]];
        contrib[k] = std::min(job.rate * dt, job.remaining);
        job.remaining = std::max(0.0, job.remaining - job.rate * dt);
      }
      for (int k = 0; k < active; ++k) {
        busy_integral_ += contrib[k];
        if (recorder_ != nullptr && contrib[k] != 0.0) {
          recorder_->push_back({now, contrib[k]});
        }
      }
    }
    int finished[kStreams];
    int num_finished = 0;
    for (int k = 0; k < active; ++k) {
      Job& job = jobs_[order[k]];
      if (job.remaining <= FluidProcessor::kWorkEpsilon) {
        job.active = false;
        finished[num_finished++] = job.item;
      }
    }
    for (int k = 0; k < num_finished; ++k) {
      finish(finished[k]);
    }
  }

  // FluidProcessor::Reallocate: priority-greedy rates, then the wake-up at
  // the earliest completion.
  TimeNs Reallocate(TimeNs now) {
    double free = capacity_;
    double min_tta = -1.0;
    for (Job& job : jobs_) {
      if (!job.active) {
        continue;
      }
      job.rate = std::min(job.max_rate, free);
      free -= job.rate;
      if (job.rate > 0.0) {
        const double tta = job.remaining / job.rate;
        if (min_tta < 0.0 || tta < min_tta) {
          min_tta = tta;
        }
      }
    }
    if (min_tta < 0.0) {
      return -1;  // no active job (a non-empty table always has a fed job)
    }
    return now + FluidProcessor::WakeDelay(min_tta, now);
  }

  const double capacity_;
  std::vector<BusyIncrement>* const recorder_;
  Job jobs_[kStreams];
  uint64_t next_job_seq_ = 1;
  TimeNs last_update_ = 0;
  double busy_integral_ = 0.0;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNTIME_SLOT_EXECUTOR_H_

#include "src/sim/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace oobp {

namespace {
// Flushed (not incremented per event) so the hot path stays atomic-free.
std::atomic<uint64_t> g_total_processed{0};
thread_local uint64_t t_processed = 0;
constexpr size_t kAry = 4;  // heap fan-out; shallow trees, cache-dense sifts
}  // namespace

SimEngine::~SimEngine() { AddProcessedEvents(processed_); }

uint64_t SimEngine::TotalProcessedEvents() {
  return g_total_processed.load(std::memory_order_relaxed);
}

void SimEngine::AddProcessedEvents(uint64_t events) {
  g_total_processed.fetch_add(events, std::memory_order_relaxed);
  t_processed += events;
}

uint64_t SimEngine::ThreadProcessedEvents() { return t_processed; }

uint32_t SimEngine::AcquireSlot() {
  if (free_head_ != kNone) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void SimEngine::ReleaseSlot(uint32_t slot) {
  EventSlot& s = slots_[slot];
  s.heap_pos = kNone;
  s.next_free = free_head_;
  free_head_ = slot;
}

void SimEngine::SiftUp(size_t pos, HeapEntry entry) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kAry;
    if (!EarlierThan(entry, heap_[parent])) {
      break;
    }
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
}

void SimEngine::SiftDown(size_t pos, HeapEntry entry) {
  const size_t size = heap_.size();
  while (true) {
    const size_t first_child = pos * kAry + 1;
    if (first_child >= size) {
      break;
    }
    const size_t last_child = std::min(first_child + kAry, size);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (EarlierThan(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EarlierThan(heap_[best], entry)) {
      break;
    }
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = static_cast<uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = static_cast<uint32_t>(pos);
}

void SimEngine::RemoveHeapEntry(size_t pos) {
  const HeapEntry tail = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the physical tail
  }
  // Re-seat the tail entry at `pos`: it may need to move either direction.
  if (pos > 0 && EarlierThan(tail, heap_[(pos - 1) / kAry])) {
    SiftUp(pos, tail);
  } else {
    SiftDown(pos, tail);
  }
}

SimEngine::TimerHandle SimEngine::ScheduleAt(TimeNs t, Callback cb) {
  OOBP_CHECK_GE(t, now_);
  const uint32_t slot = AcquireSlot();
  const uint64_t seq = next_seq_++;
  EventSlot& s = slots_[slot];
  s.cb = std::move(cb);
  s.seq = seq;
  heap_.push_back(HeapEntry{t, seq, slot});
  SiftUp(heap_.size() - 1, heap_.back());
  return TimerHandle(slot, seq);
}

bool SimEngine::Cancel(TimerHandle handle) {
  if (handle.seq_ == 0 || handle.slot_ >= slots_.size()) {
    return false;
  }
  EventSlot& s = slots_[handle.slot_];
  if (s.heap_pos == kNone || s.seq != handle.seq_) {
    return false;  // already fired, already cancelled, or slot reused
  }
  RemoveHeapEntry(s.heap_pos);
  s.cb.Reset();
  ReleaseSlot(handle.slot_);
  return true;
}

bool SimEngine::Step() {
  if (heap_.empty()) {
    return false;
  }
  const HeapEntry top = heap_[0];
  RemoveHeapEntry(0);
  // Move the callback out and free the slot before invoking: the callback
  // may schedule new events (reusing the slot) or grow the slab.
  Callback cb = std::move(slots_[top.slot].cb);
  ReleaseSlot(top.slot);
  OOBP_CHECK_GE(top.time, now_);
  now_ = top.time;
  ++processed_;
  cb();
  return true;
}

uint64_t SimEngine::Run(TimeNs limit) {
  uint64_t count = 0;
  while (!heap_.empty() && heap_[0].time <= limit) {
    if (!Step()) {
      break;
    }
    ++count;
  }
  // Finite-limit runs leave the clock at exactly `limit` (see header).
  if (limit != std::numeric_limits<TimeNs>::max() && now_ < limit) {
    now_ = limit;
  }
  return count;
}

}  // namespace oobp

#include "src/hw/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/hw/validation_hooks.h"

namespace oobp {

LinkSpec LinkSpec::NvLink() { return {"NVLink", 50.0, Us(2)}; }
LinkSpec LinkSpec::PcIe3() { return {"PCIe3", 16.0, Us(5)}; }
LinkSpec LinkSpec::Eth10G() { return {"10GbE", 1.25, Us(25)}; }
LinkSpec LinkSpec::Eth20G() { return {"20GbE", 2.5, Us(25)}; }
LinkSpec LinkSpec::Eth25G() { return {"25GbE", 3.125, Us(25)}; }

Link::Link(SimEngine* engine, LinkSpec spec, int64_t chunk_bytes,
           TraceRecorder* trace, int track, int64_t commit_window_bytes)
    : engine_(engine),
      spec_(std::move(spec)),
      chunk_bytes_(chunk_bytes),
      trace_(trace),
      track_(track),
      commit_window_bytes_(commit_window_bytes) {
  OOBP_CHECK(engine != nullptr);
  OOBP_CHECK_GT(spec_.bandwidth_gbps, 0.0);
  OOBP_CHECK_GT(chunk_bytes, 0);
  OOBP_CHECK_GE(commit_window_bytes, 0);
  if (HwValidationHooks* hooks = ActiveHwValidationHooks()) {
    hooks->OnLinkCreated(this);
  }
}

Link::~Link() {
  if (observer_ != nullptr) {
    observer_->OnLinkDestroyed(*this);
  }
}

TimeNs Link::SerializationTime(int64_t bytes) const {
  OOBP_CHECK_GE(bytes, 0);
  if (bytes == 0) {
    return 0;
  }
  // bandwidth_gbps is GB/s == bytes/ns.
  const double ns = static_cast<double>(bytes) / spec_.bandwidth_gbps;
  return std::max<TimeNs>(1, static_cast<TimeNs>(std::ceil(ns)));
}

Link::TransferId Link::Transfer(int64_t bytes, int priority, std::string name,
                                std::function<void()> on_complete) {
  OOBP_CHECK_GT(bytes, 0);
  const TransferId id = next_id_++;
  Message msg;
  msg.remaining = bytes;
  msg.total = bytes;
  msg.priority = priority;
  msg.seq = id;
  msg.name = std::move(name);
  msg.on_complete = std::move(on_complete);
  pending_.emplace(std::make_pair(priority, id), std::move(msg));
  done_.push_back(false);
  if (observer_ != nullptr) {
    observer_->OnTransferSubmitted(*this, id, bytes, priority);
  }
  RefillAndStart();
  return id;
}

bool Link::Done(TransferId id) const {
  OOBP_CHECK(id >= 1 && id < next_id_) << "unknown transfer id " << id;
  return done_[static_cast<size_t>(id - 1)];
}

void Link::RefillAndStart() {
  // Draw the highest-priority pending messages into the committed FIFO. With
  // no window configured, commit one message at a time so each chunk
  // boundary re-consults the priority queue (full preemptibility).
  if (commit_window_bytes_ == 0) {
    if (committed_.empty() && !pending_.empty()) {
      committed_.push_back(std::move(pending_.begin()->second));
      committed_bytes_ += committed_.back().remaining;
      pending_.erase(pending_.begin());
    }
  } else {
    while (!pending_.empty() && committed_bytes_ < commit_window_bytes_) {
      committed_.push_back(std::move(pending_.begin()->second));
      committed_bytes_ += committed_.back().remaining;
      pending_.erase(pending_.begin());
    }
  }
  StartNextChunk();
}

void Link::StartNextChunk() {
  if (busy_ || committed_.empty()) {
    return;
  }
  busy_ = true;
  Message& msg = committed_.front();

  const int64_t chunk = std::min<int64_t>(chunk_bytes_, msg.remaining);
  TimeNs duration = SerializationTime(chunk);
  if (!msg.latency_paid) {
    duration += spec_.latency;
    msg.latency_paid = true;
    msg.first_start = engine_->now();
  }
  busy_time_ += duration;

  engine_->ScheduleAfter(duration, [this, chunk] {
    busy_ = false;
    OOBP_CHECK(!committed_.empty());
    Message& m = committed_.front();
    m.remaining -= chunk;
    committed_bytes_ -= chunk;
    if (m.remaining <= 0) {
      if (trace_ != nullptr) {
        TraceEvent ev;
        ev.name = m.name;
        ev.category = "comm";
        ev.track = track_;
        ev.start = m.first_start;
        ev.duration = engine_->now() - m.first_start;
        ev.args["bytes"] = std::to_string(m.total);
        trace_->Add(ev);
      }
      done_[static_cast<size_t>(m.seq - 1)] = true;
      ++completed_count_;
      if (observer_ != nullptr) {
        observer_->OnTransferCompleted(*this, m.seq);
      }
      auto cb = std::move(m.on_complete);
      committed_.pop_front();
      if (cb) {
        cb();
      }
    } else if (commit_window_bytes_ == 0 && !pending_.empty() &&
               pending_.begin()->first < std::make_pair(m.priority, m.seq)) {
      // Fully preemptible mode: a pending transfer outranks the partially
      // sent message, so return the message to the priority queue and let
      // the refill below cut the newcomer in at the chunk boundary. When
      // nothing outranks it, the refill would pick the message straight
      // back; it stays at the head instead, and the next chunk is scheduled
      // by the same ScheduleAfter call either way.
      Message back = std::move(committed_.front());
      committed_.pop_front();
      committed_bytes_ -= back.remaining;
      pending_.emplace(std::make_pair(back.priority, back.seq),
                       std::move(back));
    }
    RefillAndStart();
  });
}

}  // namespace oobp

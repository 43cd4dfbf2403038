#include "src/hw/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace oobp {

LinkSpec LinkSpec::NvLink() { return {"NVLink", 50.0, Us(2)}; }
LinkSpec LinkSpec::PcIe3() { return {"PCIe3", 16.0, Us(5)}; }
LinkSpec LinkSpec::Eth10G() { return {"10GbE", 1.25, Us(25)}; }
LinkSpec LinkSpec::Eth20G() { return {"20GbE", 2.5, Us(25)}; }
LinkSpec LinkSpec::Eth25G() { return {"25GbE", 3.125, Us(25)}; }

Link::Link(SimEngine* engine, LinkSpec spec, int64_t chunk_bytes,
           int64_t commit_window_bytes)
    : engine_(engine),
      queue_(spec, chunk_bytes, commit_window_bytes),
      observers_(RegisterDevice(&device_)) {
  OOBP_CHECK(engine != nullptr);
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnLinkCreated, device_,
           engine_->now(), queue_.spec());
  }
}

TimeNs SerializationTime(const LinkSpec& spec, int64_t bytes) {
  OOBP_CHECK_GE(bytes, 0);
  if (bytes == 0) {
    return 0;
  }
  // bandwidth_gbps is GB/s == bytes/ns.
  const double ns = static_cast<double>(bytes) / spec.bandwidth_gbps;
  return std::max<TimeNs>(1, static_cast<TimeNs>(std::ceil(ns)));
}

ChunkTiming::ChunkTiming(const LinkSpec& spec, int64_t chunk_bytes,
                         int64_t bytes) {
  OOBP_CHECK_GT(bytes, 0);
  OOBP_CHECK_GT(chunk_bytes, 0);
  chunks = (bytes + chunk_bytes - 1) / chunk_bytes;
  latency = spec.latency;
  full = SerializationTime(spec, chunk_bytes);
  last = SerializationTime(spec, bytes - (chunks - 1) * chunk_bytes);
}

LinkQueue::LinkQueue(const LinkSpec& spec, int64_t chunk_bytes,
                     int64_t commit_window_bytes)
    : spec_(spec),
      chunk_bytes_(chunk_bytes),
      commit_window_bytes_(commit_window_bytes) {
  OOBP_CHECK_GT(spec_.bandwidth_gbps, 0.0);
  OOBP_CHECK_GT(chunk_bytes, 0);
  OOBP_CHECK_GE(commit_window_bytes, 0);
}

LinkQueue::TransferId LinkQueue::Submit(int64_t bytes, int priority) {
  OOBP_CHECK_GT(bytes, 0);
  const TransferId id = next_id_++;
  Message msg;
  msg.remaining = bytes;
  msg.total = bytes;
  msg.priority = priority;
  msg.seq = id;
  pending_.emplace(std::make_pair(priority, id), msg);
  return id;
}

TimeNs LinkQueue::RefillAndStart(TimeNs now) {
  // Draw the highest-priority pending messages into the committed FIFO. With
  // no window configured, commit one message at a time so each chunk
  // boundary re-consults the priority queue (full preemptibility).
  if (commit_window_bytes_ == 0) {
    if (committed_.empty() && !pending_.empty()) {
      committed_.push_back(pending_.begin()->second);
      committed_bytes_ += committed_.back().remaining;
      pending_.erase(pending_.begin());
    }
  } else {
    while (!pending_.empty() && committed_bytes_ < commit_window_bytes_) {
      committed_.push_back(pending_.begin()->second);
      committed_bytes_ += committed_.back().remaining;
      pending_.erase(pending_.begin());
    }
  }
  if (busy_ || committed_.empty()) {
    return -1;
  }
  busy_ = true;
  Message& msg = committed_.front();
  chunk_on_wire_ = std::min<int64_t>(chunk_bytes_, msg.remaining);
  TimeNs duration = SerializationTime(spec_, chunk_on_wire_);
  if (!msg.latency_paid) {
    duration += spec_.latency;
    msg.latency_paid = true;
    msg.first_start = now;
  }
  busy_time_ += duration;
  return duration;
}

bool LinkQueue::EndChunk(Completion* done) {
  OOBP_CHECK(busy_);
  OOBP_CHECK(!committed_.empty());
  busy_ = false;
  Message& m = committed_.front();
  m.remaining -= chunk_on_wire_;
  committed_bytes_ -= chunk_on_wire_;
  if (m.remaining <= 0) {
    *done = Completion{m.seq, m.total, m.first_start};
    committed_.pop_front();
    return true;
  }
  if (commit_window_bytes_ == 0 && !pending_.empty() &&
      pending_.begin()->first < std::make_pair(m.priority, m.seq)) {
    // Fully preemptible mode: a pending transfer outranks the partially
    // sent message, so return the message to the priority queue and let
    // the refill cut the newcomer in at the chunk boundary. When nothing
    // outranks it, the refill would pick the message straight back; it
    // stays at the head instead, and its next chunk starts from the same
    // refill either way.
    committed_bytes_ -= m.remaining;
    pending_.emplace(std::make_pair(m.priority, m.seq), m);
    committed_.pop_front();
  }
  return false;
}

Link::TransferId Link::Transfer(int64_t bytes, int priority, std::string name,
                                std::function<void()> on_complete) {
  const TransferId id = queue_.Submit(bytes, priority);
  records_.push_back(Record{std::move(name), std::move(on_complete), false});
  if (observers_ != nullptr) {
    Notify(*observers_, &DeviceObserver::OnTransferSubmitted,
           TransferEvent{.link = device_, .now = engine_->now(), .id = id,
                         .bytes = bytes});
  }
  RefillAndStart();
  return id;
}

bool Link::Done(TransferId id) const {
  OOBP_CHECK(id >= 1 && id <= static_cast<TransferId>(records_.size()))
      << "unknown transfer id " << id;
  return records_[static_cast<size_t>(id - 1)].done;
}

void Link::RefillAndStart() {
  const TimeNs duration = queue_.RefillAndStart(engine_->now());
  if (duration >= 0) {
    engine_->ScheduleAfter(duration, [this] { OnChunkEnd(); });
  }
}

void Link::OnChunkEnd() {
  LinkQueue::Completion done;
  if (queue_.EndChunk(&done)) {
    Record& record = records_[static_cast<size_t>(done.id - 1)];
    record.done = true;
    if (observers_ != nullptr) {
      Notify(*observers_, &DeviceObserver::OnTransferCompleted,
             TransferEvent{.link = device_, .now = engine_->now(),
                           .id = done.id, .bytes = done.bytes,
                           .first_start = done.first_start,
                           .busy_time = queue_.busy_time(),
                           .name = record.name});
    }
    // The callback may submit transfers, which can grow records_.
    const std::function<void()> cb = std::move(record.on_complete);
    if (cb) {
      cb();
    }
  }
  RefillAndStart();
}

}  // namespace oobp

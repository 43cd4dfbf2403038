// Point-to-point communication link with chunked, priority-preemptive
// transfer scheduling.
//
// The link serializes bytes at a fixed bandwidth. Messages are split into
// chunks; after each chunk the link re-selects the highest-priority pending
// message, so a newly arrived high-priority transfer preempts a bulk one at
// chunk granularity. This is the semantics communication schedulers such as
// BytePS / ByteScheduler / P3 implement (tensor partitioning + priority
// queues), which reverse first-k scheduling builds on. A message pays the
// propagation latency once, ahead of its first chunk.

#ifndef OOBP_SRC_HW_LINK_H_
#define OOBP_SRC_HW_LINK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/hw/observer.h"
#include "src/sim/engine.h"

namespace oobp {

struct LinkSpec {
  std::string name;
  double bandwidth_gbps = 0.0;  // GB/s (bytes * 1e9 per second)
  TimeNs latency = 0;           // per-message propagation latency

  // Interconnects from the paper's evaluation (Section 8.4.1 gives the
  // NVLink/PCIe/Ethernet bandwidths used for the BERT-24 experiment).
  static LinkSpec NvLink();   // 50 GB/s
  static LinkSpec PcIe3();    // 16 GB/s
  static LinkSpec Eth10G();   // 1.25 GB/s
  static LinkSpec Eth20G();   // 2.5 GB/s
  static LinkSpec Eth25G();   // 3.125 GB/s
};

// Nanoseconds to move `bytes` at `spec`'s bandwidth, excluding latency:
// ceil(bytes / bandwidth), and at least 1 for a non-empty transfer.
TimeNs SerializationTime(const LinkSpec& spec, int64_t bytes);

// The chunk schedule Link gives a message that holds the link from its first
// chunk to its last (nothing outranks it): the latency once, with the first
// chunk, then SerializationTime per chunk, every chunk full but the last.
// Engines that step a message once, at its completion, time it with this.
struct ChunkTiming {
  ChunkTiming(const LinkSpec& spec, int64_t chunk_bytes, int64_t bytes);

  // Offset from the message's start to the end of chunk j, 1 <= j <= chunks.
  TimeNs ChunkEnd(int64_t j) const {
    return j < chunks ? latency + j * full
                      : latency + (chunks - 1) * full + last;
  }
  // Offset of the completion; also the link busy time the message adds.
  TimeNs End() const { return ChunkEnd(chunks); }

  int64_t chunks = 0;
  TimeNs latency = 0;
  TimeNs full = 0;  // one full chunk
  TimeNs last = 0;  // the last (possibly short) chunk
};

// Link's transmission policy without a clock: the priority backlog, the
// committed FIFO bounded by the commit window (see Link's constructor), the
// chunk boundary's in-place rule and the busy-time accounting. Link drives it
// from SimEngine events; the data-parallel executor drives it from one event
// slot (DESIGN.md §6.3). Each call is one step of Link's, so a driver that
// makes the same calls at the same times reproduces Link exactly.
class LinkQueue {
 public:
  using TransferId = int64_t;

  LinkQueue(const LinkSpec& spec, int64_t chunk_bytes,
            int64_t commit_window_bytes);

  // Queues a transfer of `bytes` (> 0); lower `priority` values transmit
  // first, ties in submission order. Ids are dense from 1.
  TransferId Submit(int64_t bytes, int priority);

  // Moves backlog messages into the committed FIFO while the window has
  // room, then, if the wire is idle, puts the committed head's next chunk on
  // it. Returns that chunk's duration (the latency included for a message's
  // first chunk, which `now` stamps), or -1 when no chunk starts.
  TimeNs RefillAndStart(TimeNs now);

  // A message whose last chunk has left the wire.
  struct Completion {
    TransferId id = 0;
    int64_t bytes = 0;
    TimeNs first_start = 0;  // when its first chunk started
  };
  // Ends the chunk on the wire. Returns true and fills `done` when it was
  // its message's last chunk; otherwise, with no commit window, returns the
  // message to the backlog if a pending message outranks it. The caller
  // then calls RefillAndStart.
  bool EndChunk(Completion* done);

  bool busy() const { return busy_; }
  size_t pending() const { return pending_.size(); }
  // Time of every chunk started so far, counted when the chunk starts.
  TimeNs busy_time() const { return busy_time_; }
  const LinkSpec& spec() const { return spec_; }

 private:
  struct Message {
    int64_t remaining = 0;
    int64_t total = 0;
    int priority = 0;
    TransferId seq = 0;
    TimeNs first_start = -1;
    bool latency_paid = false;
  };

  LinkSpec spec_;
  int64_t chunk_bytes_;
  int64_t commit_window_bytes_;

  bool busy_ = false;
  int64_t chunk_on_wire_ = 0;
  TimeNs busy_time_ = 0;
  TransferId next_id_ = 1;
  // Priority-ordered backlog, keyed by (priority, seq).
  std::map<std::pair<int, TransferId>, Message> pending_;
  // Non-preemptible committed region (FIFO), bounded by the commit window.
  std::deque<Message> committed_;
  int64_t committed_bytes_ = 0;
};

class Link {
 public:
  using TransferId = int64_t;

  // Reports its transfer events to the observer list when built in an
  // observed run (src/hw/observer.h).
  //
  // `commit_window_bytes` models the transport's non-preemptible queue
  // (socket buffers, RDMA work queues, the server-side pipeline): messages
  // are drawn from the priority queue into a FIFO "committed" region of at
  // most this many bytes, inside which reordering is no longer possible. A
  // high-priority message therefore bypasses the *backlog* but still waits
  // for up to one window of committed bytes — the reason the paper's
  // first-layer synchronization takes hundreds of milliseconds even under
  // priority scheduling (Section 8.3). 0 = fully preemptible at chunk
  // granularity.
  Link(SimEngine* engine, LinkSpec spec, int64_t chunk_bytes = 1 << 20,
       int64_t commit_window_bytes = 0);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Submits a transfer; lower `priority` values transmit first. The returned
  // id identifies the transfer in queries.
  TransferId Transfer(int64_t bytes, int priority, std::string name,
                      std::function<void()> on_complete);

  bool Done(TransferId id) const;
  bool idle() const { return !queue_.busy(); }
  TimeNs busy_time() const { return queue_.busy_time(); }
  const LinkSpec& spec() const { return queue_.spec(); }

  // Nanoseconds to move `bytes` at link bandwidth (excluding latency).
  TimeNs SerializationTime(int64_t bytes) const {
    return oobp::SerializationTime(spec(), bytes);
  }

 private:
  // What Link keeps per transfer beside the queue, indexed by id - 1.
  struct Record {
    std::string name;
    std::function<void()> on_complete;
    bool done = false;
  };

  // Starts the next chunk if the queue has one for an idle wire.
  void RefillAndStart();
  void OnChunkEnd();

  SimEngine* engine_;
  LinkQueue queue_;
  std::vector<Record> records_;
  int device_ = -1;
  const ObserverList* observers_;  // null in an unobserved run
};

}  // namespace oobp

#endif  // OOBP_SRC_HW_LINK_H_

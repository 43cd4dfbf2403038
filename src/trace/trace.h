// Execution trace recording.
//
// A TraceRecorder subscribed to the observer list (src/hw/observer.h)
// records one TraceEvent per kernel execution, transfer and timeline span
// (a kernel issue, a pipeline op). Traces serve three purposes:
// Chrome-trace JSON export for visual inspection (chrome://tracing /
// Perfetto), timeline analysis for the figure scenarios (e.g. Figure 2's
// issue-masking breakdown), and utilization metrics.
//
// Tracks: the k-th device the recorder sees built owns tracks 100k to
// 100k + 99, one per lane: a Gpu's stream s is lane s, a Link and a
// CpuLauncher use lane 0, and a pipeline's op timeline puts GPU g on lane g.
// A single-GPU run therefore traces the main stream on track 0, the sub
// stream on 1 and kernel issue on 100.

#ifndef OOBP_SRC_TRACE_TRACE_H_
#define OOBP_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/hw/observer.h"

namespace oobp {

struct TraceEvent {
  std::string name;       // e.g. "dW[conv4_2]"
  std::string category;   // "fwd", "dO", "dW", "update", "comm", "issue", ...
  int track = 0;          // device/stream id the event ran on
  TimeNs start = 0;
  TimeNs duration = 0;
  std::map<std::string, std::string> args = {};  // free-form annotations

  TimeNs end() const { return start + duration; }
};

class TraceRecorder : public DeviceObserver {
 public:
  void Add(TraceEvent ev) { events_.push_back(std::move(ev)); }
  void Clear() { events_.clear(); }

  // DeviceObserver: devices take tracks as they are built; finished
  // kernels, completed transfers and spans become events.
  void OnGpuCreated(int gpu, TimeNs, const GpuSpec&) override { Track(gpu, 0); }
  void OnLinkCreated(int link, TimeNs, const LinkSpec&) override {
    Track(link, 0);
  }
  void OnTimelineCreated(int timeline) override { Track(timeline, 0); }
  void OnKernelFinished(const KernelEvent& e) override;
  void OnTransferCompleted(const TransferEvent& e) override;
  void OnSpan(const Span& s) override;

  const std::vector<TraceEvent>& events() const { return events_; }

  // Events on one track, sorted by start time.
  std::vector<TraceEvent> TrackEvents(int track) const;

  // Total busy time on a track within [begin, end), counting overlapping
  // events once (union of intervals).
  TimeNs BusyTime(int track, TimeNs begin, TimeNs end) const;

  // Latest event end over all tracks (0 when empty).
  TimeNs Makespan() const;

  // Serializes to the Chrome trace-event JSON array format. `track_names`
  // maps track ids to thread names shown by the viewer.
  std::string ToChromeJson(const std::map<int, std::string>& track_names) const;

  // Writes ToChromeJson to a file; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path,
                       const std::map<int, std::string>& track_names) const;

 private:
  // The track of `device`'s `lane`; a device seen for the first time takes
  // the next block of tracks.
  int Track(int device, int lane);

  std::vector<TraceEvent> events_;
  std::map<int, int> first_track_;  // by device id
};

}  // namespace oobp

#endif  // OOBP_SRC_TRACE_TRACE_H_

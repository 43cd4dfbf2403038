#include "src/trace/trace.h"

#include <algorithm>
#include <fstream>

#include "src/common/str_util.h"

namespace oobp {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

constexpr int kTracksPerDevice = 100;

}  // namespace

int TraceRecorder::Track(int device, int lane) {
  const int next = kTracksPerDevice * static_cast<int>(first_track_.size());
  return first_track_.try_emplace(device, next).first->second + lane;
}

void TraceRecorder::OnKernelFinished(const KernelEvent& e) {
  Add({std::string(e.name), std::string(e.category), Track(e.gpu, e.stream),
       e.start, e.now - e.start});
}

void TraceRecorder::OnTransferCompleted(const TransferEvent& e) {
  Add({std::string(e.name), "comm", Track(e.link, 0), e.first_start,
       e.now - e.first_start, {{"bytes", std::to_string(e.bytes)}}});
}

void TraceRecorder::OnSpan(const Span& s) {
  Add({std::string(s.name), std::string(s.category), Track(s.timeline, s.lane),
       s.start, s.duration});
}

std::vector<TraceEvent> TraceRecorder::TrackEvents(int track) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events_) {
    if (ev.track == track) {
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start < b.start;
  });
  return out;
}

TimeNs TraceRecorder::BusyTime(int track, TimeNs begin, TimeNs end) const {
  std::vector<std::pair<TimeNs, TimeNs>> intervals;
  for (const TraceEvent& ev : events_) {
    if (ev.track != track) {
      continue;
    }
    const TimeNs s = std::max(begin, ev.start);
    const TimeNs e = std::min(end, ev.end());
    if (s < e) {
      intervals.emplace_back(s, e);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  TimeNs busy = 0;
  TimeNs cursor = begin;
  for (const auto& [s, e] : intervals) {
    const TimeNs from = std::max(cursor, s);
    if (e > from) {
      busy += e - from;
      cursor = e;
    }
  }
  return busy;
}

TimeNs TraceRecorder::Makespan() const {
  TimeNs last = 0;
  for (const TraceEvent& ev : events_) {
    last = std::max(last, ev.end());
  }
  return last;
}

std::string TraceRecorder::ToChromeJson(
    const std::map<int, std::string>& track_names) const {
  std::string out = "[\n";
  bool first = true;
  for (const auto& [track, name] : track_names) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        track, JsonEscape(name).c_str());
  }
  for (const TraceEvent& ev : events_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    // Chrome traces use microsecond floats; nanoseconds divide cleanly.
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f",
        JsonEscape(ev.name).c_str(), JsonEscape(ev.category).c_str(), ev.track,
        ToUs(ev.start), ToUs(ev.duration));
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : ev.args) {
        if (!first_arg) {
          out += ",";
        }
        first_arg = false;
        out += StrFormat("\"%s\":\"%s\"", JsonEscape(k).c_str(),
                         JsonEscape(v).c_str());
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]\n";
  return out;
}

bool TraceRecorder::WriteChromeJson(
    const std::string& path, const std::map<int, std::string>& track_names) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << ToChromeJson(track_names);
  return static_cast<bool>(f);
}

}  // namespace oobp

#include <string>

#include "hostbench/bench.h"
#include "src/trace/trace.h"

namespace hostbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kNn:
      return "nn";
    case Layer::kCore:
      return "core";
    case Layer::kRuntime:
      return "runtime";
    case Layer::kSim:
      return "sim";
    case Layer::kHw:
      return "hw";
    case Layer::kServe:
      return "serve";
    case Layer::kSearch:
      return "search";
    case Layer::kCount:
      break;
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int32_t Tracer::Begin(const char* name, Layer layer) {
  const int32_t index = static_cast<int32_t>(records_.size());
  records_.push_back({name, layer, NowNs(), -1, open_, op_});
  open_ = index;
  return index;
}

void Tracer::End(int32_t index) {
  Record& r = records_[static_cast<size_t>(index)];
  r.end_ns = NowNs();
  open_ = r.parent;
}

std::vector<int64_t> Tracer::SelfNsByLayer(int64_t from_ns,
                                           int64_t to_ns) const {
  // Children of one parent never overlap (one thread), so the time they
  // cover is the sum of their durations.
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::vector<int64_t> self(static_cast<size_t>(Layer::kCount), 0);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.start_ns >= from_ns && r.start_ns < to_ns) {
      self[static_cast<size_t>(r.layer)] +=
          r.end_ns - r.start_ns - child_ns[i];
    }
  }
  return self;
}

std::vector<int64_t> Tracer::TotalNsByLayer(int64_t from_ns,
                                            int64_t to_ns) const {
  std::vector<int64_t> total(static_cast<size_t>(Layer::kCount), 0);
  for (const Record& r : records_) {
    if (r.start_ns >= from_ns && r.start_ns < to_ns) {
      total[static_cast<size_t>(r.layer)] += r.end_ns - r.start_ns;
    }
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& title) const {
  oobp::TraceRecorder recorder;
  const int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    recorder.Add({.name = r.name,
                  .category = LayerName(r.layer),
                  .start = r.start_ns - t0,
                  .duration = r.end_ns - r.start_ns,
                  .args = {{"id", std::to_string(i)},
                           {"parent", std::to_string(r.parent)},
                           {"op", std::to_string(r.op)}}});
  }
  return recorder.WriteChromeJson(path, {{0, title}});
}

}  // namespace hostbench

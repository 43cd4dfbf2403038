// Shared pieces of the host-time benchmark: the span tracer, the result
// digest, the per-pass exact counters, and the workload interface.
//
// The benchmark calls the simulator's public functions directly. Every call is
// wrapped in a Span; spans cost one branch when tracing is off, and in a
// traced run they are kept in memory and written out at exit.

#ifndef HOSTBENCH_BENCH_H_
#define HOSTBENCH_BENCH_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Median of a non-empty sample; the mean of the middle two when even.
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Layers of the simulation path, named after the src/ modules.
enum class Layer { kNn, kCore, kRuntime, kSim, kHw, kServe, kSearch, kCount };
const char* LayerName(Layer layer);

// In-memory span recorder (main thread only). A span's parent is the span
// that was open when it started; `op` is the timed operation it belongs to
// (-1 during set-up and probes).
class Tracer {
 public:
  struct Record {
    const char* name;
    Layer layer;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t op;
  };

  static Tracer& Get();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_op(int64_t op) { op_ = op; }

  int32_t Begin(const char* name, Layer layer);
  void End(int32_t index);

  const std::vector<Record>& records() const { return records_; }

  // Self time (span duration minus the time its direct children cover) per
  // layer, in ns, over spans whose start lies in [from_ns, to_ns).
  std::vector<int64_t> SelfNsByLayer(int64_t from_ns, int64_t to_ns) const;
  // Total span time per layer over the same window (children included).
  std::vector<int64_t> TotalNsByLayer(int64_t from_ns, int64_t to_ns) const;

  // Writes every span as Chrome/Perfetto trace-event JSON (through
  // oobp::TraceRecorder); `title` names the single track.
  bool WriteJson(const std::string& path, const std::string& title) const;

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  int32_t open_ = -1;
  std::vector<Record> records_;
};

class Span {
 public:
  Span(const char* name, Layer layer)
      : index_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, layer)
                                       : -1) {}
  ~Span() {
    if (index_ >= 0) {
      Tracer::Get().End(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int32_t index_;
};

// FNV-1a over the bit patterns of simulated results.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Exact work counters. The benchmark sums them over the first pass of the job
// list only, so they repeat exactly however many ops a timed window holds.
struct Counters {
  int64_t plan_calls = 0;      // core planners called
  int64_t k_probes = 0;        // SearchBestK throughput evaluations
  int64_t runtime_runs = 0;    // training engine Run calls
  int64_t replay_attempted = 0;
  int64_t replay_replayed = 0;
  int64_t serve_requests = 0;  // requests offered to serve engines
  int64_t router_decisions = 0;
  int64_t analytic_evals = 0;  // search Tier-A evaluations
  int64_t tier_b_evals = 0;    // search simulator evaluations
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

// One benchmark workload: a seeded job list and the op that runs one job.
// Set-up builds every model, TrainGraph and CostModel the list needs; RunOp
// is the timed part; Check validates the last op's result outside the timed
// interval and returns false on any violation.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(uint64_t seed) = 0;
  virtual size_t num_jobs() const = 0;
  virtual int models_built() const = 0;
  // Threads an op keeps busy at once.
  virtual int threads() const { return 1; }
  virtual void RunOp(size_t job, Counters* counters) = 0;
  virtual bool Check(size_t job, Digest* digest, std::string* error) = 0;
};

std::unique_ptr<Workload> MakeTrainWorkload();
std::unique_ptr<Workload> MakeServeFleetWorkload();
std::unique_ptr<Workload> MakeScheduleSearchWorkload();

// Host speed on a shared host. Other tenants slow single cores, by up to
// half, and which cores changes every few seconds. A probe is the host ms of
// a fixed single-threaded kernel that calls nothing in src/, so its time says
// how fast a core runs at the moment, whatever the simulator's code does.
class HostSpeed {
 public:
  // `threads`: how many cores the timed ops keep busy at once.
  explicit HostSpeed(int threads);
  // Restores the cores the process started with.
  ~HostSpeed();
  // Probes every core the process may use, restricts the calling thread (and
  // the threads it starts) to the `threads` fastest, and returns their mean
  // probe time.
  double PinFastest();
  // Mean probe time over the cores PinFastest chose.
  double ProbePinned();

 private:
  double MeanMs(const std::vector<int>& cores,
                std::vector<std::pair<double, int>>* per_core);

  int threads_;
  std::vector<int> allowed_;
  std::vector<int> pinned_;
};

// Layer probes (traced runs only): direct calls into SimEngine,
// FluidProcessor, Gpu, Link and FastScheduleEvaluator.
struct ProbeResults {
  double heap_ns_per_event = 0;
  double fluid_ns_per_completion = 0;
  double fluid_churn1000_ns_per_completion = 0;
  double gpu_ns_per_kernel = 0;
  double link_ns_per_chunk = 0;
  double eval_incremental_us = 0;
  double eval_cold_us = 0;
};
ProbeResults RunProbes();

}  // namespace hostbench

#endif  // HOSTBENCH_BENCH_H_

// Host-time benchmark of the simulator (see README.md).
//
//   hostbench --workload <train|serve_fleet|schedule_search> --seed N
//             --seconds S --trace <0|1> [--trace-dir DIR]
//             [--expect-digest HEX]
//   hostbench --selftest
//
// Prints one JSON object as the last line of stdout: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs report the end-to-end metrics; traced
// runs report the per-layer metrics and write every span to
// DIR/hostbench-trace-<workload>-<seed>.json.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hostbench/bench.h"
#include "src/common/stats.h"
#include "src/nn/model_cache.h"
#include "src/sim/engine.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE ""
#endif
#ifndef HOSTBENCH_COMPILER
#define HOSTBENCH_COMPILER "unknown"
#endif

namespace hostbench {
namespace {

// Set-ups repeated at every pass boundary; setup_s is the median of all
// set-ups in the run. Spreading them over the run keeps them off the cold
// first milliseconds of the process, when the CPU may not have ramped up.
constexpr int kSetupsPerPass = 5;
// A run measures whole passes over its job list: it ends at the first pass
// boundary after --seconds, and not before it has made this many passes.
// Each job's host time is its median over the passes, so a cost that hits
// most of a job's executions shows, while a slow phase of the run (another
// tenant of a shared host) that covers fewer than half of them does not. A
// job's best would also hide such costs, and it moves more from run to run:
// it picks up the rare fast execution.
constexpr int64_t kMinPasses = 3;
// Host speed: each pass runs on the cores that probe fastest just before it,
// and its timings are rescaled to a core on which the probe takes this long
// (about its time on an unloaded 2.1 GHz Xeon core), by the mean of the
// probes on its cores before and after it.
constexpr double kReferenceSpeedMs = 1.6;
// Job lists hold at least this many jobs, so the reported p90 of per-job
// times has at least ten samples beyond it.
constexpr size_t kMinJobs = 100;

// The highest percentile of {50, 90, 99, 99.9} with at least ten of `n`
// nearest-rank samples beyond it; 0 when even the median has fewer.
double TailPercentile(int64_t n) {
  double best = 0;
  for (const int64_t per_mille : {500, 900, 990, 999}) {
    const int64_t rank = (per_mille * n + 999) / 1000;  // exact ceil
    if (n - rank >= 10) {
      best = static_cast<double>(per_mille) / 10.0;
    }
  }
  return best;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  expect(TailPercentile(0) == 0, "no samples, no percentile");
  expect(TailPercentile(19) == 0, "19 samples leave 9 beyond the median");
  expect(TailPercentile(20) == 50, "20 samples: p50");
  expect(TailPercentile(99) == 50, "99 samples: p90 has only 9 beyond");
  expect(TailPercentile(100) == 90, "100 samples: p90");
  expect(TailPercentile(999) == 90, "999 samples: p99 has only 9 beyond");
  expect(TailPercentile(1000) == 99, "1000 samples: p99");
  expect(TailPercentile(10000) == 99.9, "10000 samples: p99.9");

  // Self times of nested spans cover each instant once.
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(true);
  const int64_t from = NowNs();
  {
    Span outer("outer", Layer::kCore);
    {
      Span inner("inner", Layer::kRuntime);
      Span leaf("leaf", Layer::kSim);
    }
    Span second("second", Layer::kRuntime);
  }
  const int64_t to = NowNs();
  tracer.set_enabled(false);
  int64_t self_sum = 0;
  for (const int64_t ns : tracer.SelfNsByLayer(from, to + 1)) {
    expect(ns >= 0, "self time is never negative");
    self_sum += ns;
  }
  expect(self_sum <= to - from, "self times sum to at most wall time");
  expect(tracer.records().size() == 4 && tracer.records()[1].parent == 0 &&
             tracer.records()[2].parent == 1 &&
             tracer.records()[3].parent == 0,
         "span parents follow nesting");
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool OptimizedBuild(std::string* why) {
  const std::string type = HOSTBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' is not Release or RelWithDebInfo";
    return false;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  *why = "sanitizer build";
  return false;
#endif
#endif
#ifndef __OPTIMIZE__
  *why = "compiled without optimization";
  return false;
#endif
  return true;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Metrics in output order, printed with full precision.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      value = 0;
    }
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  std::string expect_digest;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else if (flag == "--expect-digest") {
      args->expect_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "train") {
    return MakeTrainWorkload();
  }
  if (name == "serve_fleet") {
    return MakeServeFleetWorkload();
  }
  if (name == "schedule_search") {
    return MakeScheduleSearchWorkload();
  }
  return nullptr;
}

// Host cost of recording one span, measured on a scratch tracer.
double SpanCostNs() {
  Tracer scratch;
  scratch.set_enabled(true);
  constexpr int kSpans = 100000;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    scratch.End(scratch.Begin("calibrate", Layer::kCore));
  }
  return static_cast<double>(NowNs() - t0) / kSpans;
}

int Run(const Args& args) {
  std::string why;
  if (!OptimizedBuild(&why)) {
    std::fprintf(stderr, "hostbench: refusing to report timings: %s\n",
                 why.c_str());
    return 3;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Tracer& tracer = Tracer::Get();

  // Probes on pass p's cores: speed_before[p] and speed_after[p].
  HostSpeed speed(workload->threads());
  std::vector<double> setup_s, speed_before = {speed.PinFastest()},
                               speed_after;
  // Set-up; the first one is the traced one. Each set-up starts from a
  // fresh workload, as in a new process, so freeing the previous set-up's
  // inputs is not timed.
  auto setup = [&](double speed_ms) {
    oobp::ClearModelCaches();
    workload = MakeWorkload(args.workload);
    const int64_t t0 = NowNs();
    workload->Setup(args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9 *
                      kReferenceSpeedMs / speed_ms);
  };
  tracer.set_enabled(args.trace);
  const int64_t setup_from = NowNs();
  setup(speed_before.back());
  const int64_t setup_to = NowNs();

  // The timed window: passes over the job list, one op at a time.
  const size_t jobs = workload->num_jobs();
  if (jobs < kMinJobs) {
    std::fprintf(stderr, "hostbench: %zu jobs, fewer than %zu\n", jobs,
                 kMinJobs);
    return 1;
  }
  std::vector<uint64_t> job_digest(jobs, 0);
  std::vector<std::vector<double>> job_ms(jobs), job_cpu_ms(jobs);
  Counters pass_counters, window_counters;
  uint64_t pass_events = 0, window_events = 0;
  double op_total_ms = 0;
  int64_t failed = 0, ops = 0, passes = 0;
  const int64_t window_from = NowNs();
  const int64_t deadline =
      window_from + static_cast<int64_t>(args.seconds * 1e9);
  bool done = false;
  for (size_t job = 0; !done; job = (job + 1) % jobs) {
    const bool first_pass = passes == 0;
    Counters op_counters;
    tracer.set_op(ops);
    const uint64_t events0 = oobp::SimEngine::TotalProcessedEvents();
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    workload->RunOp(job, &op_counters);
    const int64_t t1 = NowNs();
    job_cpu_ms[job].push_back((CpuSeconds() - cpu0) * 1e3);
    const uint64_t events = oobp::SimEngine::TotalProcessedEvents() - events0;
    tracer.set_op(-1);
    const double ms = static_cast<double>(t1 - t0) / 1e6;
    job_ms[job].push_back(ms);
    op_total_ms += ms;
    ++ops;

    // Correctness, outside the timed interval.
    Digest digest;
    std::string error;
    bool ok = workload->Check(job, &digest, &error);
    if (first_pass) {
      job_digest[job] = digest.value();
    } else if (ok && digest.value() != job_digest[job]) {
      ok = false;
      error = "result differs from the same job's first run";
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "hostbench: op %" PRId64 " (job %zu) failed: %s\n",
                   ops - 1, job, error.c_str());
    }

    auto add = [](Counters* into, const Counters& c) {
      into->plan_calls += c.plan_calls;
      into->k_probes += c.k_probes;
      into->runtime_runs += c.runtime_runs;
      into->replay_attempted += c.replay_attempted;
      into->replay_replayed += c.replay_replayed;
      into->serve_requests += c.serve_requests;
      into->router_decisions += c.router_decisions;
      into->analytic_evals += c.analytic_evals;
      into->tier_b_evals += c.tier_b_evals;
      into->cache_hits += c.cache_hits;
      into->cache_misses += c.cache_misses;
    };
    add(&window_counters, op_counters);
    window_events += events;
    if (first_pass) {
      add(&pass_counters, op_counters);
      pass_events += events;
    }
    if (job + 1 == jobs) {
      ++passes;
      // Whole passes only, so every run measures the seed's full job mix.
      done = passes >= kMinPasses && NowNs() >= deadline;
      tracer.set_enabled(false);
      speed_after.push_back(speed.ProbePinned());
      for (int i = 0; i < kSetupsPerPass; ++i) {
        setup(speed_after.back());
      }
      if (!done) {
        speed_before.push_back(speed.PinFastest());
      }
      tracer.set_enabled(args.trace);
    }
  }
  const int64_t window_to = NowNs();

  // Whole-run digest: every job's result, in job order.
  Digest run_digest;
  for (const uint64_t d : job_digest) {
    run_digest.Add(d);
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                run_digest.value());
  bool correct = failed == 0;
  if (!args.expect_digest.empty() && args.expect_digest != digest_hex) {
    std::fprintf(stderr, "hostbench: digest %s differs from pinned %s\n",
                 digest_hex, args.expect_digest.c_str());
    correct = false;
  }

  // Per-job medians over the passes, of times rescaled to the reference
  // host speed by the probes on either side of their pass.
  std::vector<double> sorted_ms;
  double mix_ms = 0, mix_cpu_ms = 0, raw_mix_ms = 0;
  for (size_t j = 0; j < jobs; ++j) {
    std::vector<double> ms = job_ms[j], cpu_ms = job_cpu_ms[j];
    raw_mix_ms += Median(ms);
    for (size_t p = 0; p < ms.size(); ++p) {
      const double scale =
          2 * kReferenceSpeedMs / (speed_before[p] + speed_after[p]);
      ms[p] *= scale;
      cpu_ms[p] *= scale;
    }
    sorted_ms.push_back(Median(ms));
    mix_ms += sorted_ms.back();
    mix_cpu_ms += Median(cpu_ms);
  }
  std::sort(sorted_ms.begin(), sorted_ms.end());
  const double p50 = oobp::PercentileSorted(sorted_ms, 50);
  const double p90 = oobp::PercentileSorted(sorted_ms, 90);
  const double tail = TailPercentile(static_cast<int64_t>(jobs));
  std::printf("hostbench: workload=%s seed=%" PRIu64 " ops=%" PRId64
              " passes=%" PRId64 " op_ms p50=%.4f p90=%.4f over %zu per-job "
              "medians (highest percentile with >=10 beyond: p%g = %.4f) "
              "speed probe median %.4f ms (unscaled ops_per_s %.4f) "
              "digest=%s\n",
              args.workload.c_str(), args.seed, ops, passes, p50, p90, jobs,
              tail, oobp::PercentileSorted(sorted_ms, tail),
              Median(speed_before),
              static_cast<double>(jobs) / (raw_mix_ms / 1e3), digest_hex);
  std::printf("{\"provenance\": {\"hardware_concurrency\": %u, \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", "
              "\"seed\": %" PRIu64 ", \"digest\": \"%s\"}}\n",
              std::thread::hardware_concurrency(), HOSTBENCH_COMPILER,
              HOSTBENCH_BUILD_TYPE, args.workload.c_str(), args.seed,
              digest_hex);

  MetricSet metrics;
  if (!args.trace) {
    const double n = static_cast<double>(jobs);
    metrics.Add("ops_per_s", n / (mix_ms / 1e3), "1/s");
    metrics.Add("op_ms_p50", p50, "ms");
    metrics.Add("op_ms_p90", p90, "ms");
    metrics.Add("cpu_ms_per_op", mix_cpu_ms / n, "ms");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB");
    metrics.Add("setup_s", Median(setup_s), "s");
  } else {
    const int64_t probes_from = NowNs();
    const ProbeResults probes = RunProbes();
    const int64_t probes_to = NowNs();
    tracer.set_enabled(false);

    auto idx = [](Layer l) { return static_cast<size_t>(l); };
    const std::vector<int64_t> setup_self =
        tracer.SelfNsByLayer(setup_from, setup_to);
    const std::vector<int64_t> op_self =
        tracer.SelfNsByLayer(window_from, window_to);
    const std::vector<int64_t> op_total =
        tracer.TotalNsByLayer(window_from, window_to);
    const std::vector<int64_t> probe_self =
        tracer.SelfNsByLayer(probes_from, probes_to);
    int64_t self_sum = 0;
    for (const int64_t ns : op_self) {
      self_sum += ns;
    }
    if (self_sum > window_to - window_from) {
      std::fprintf(stderr, "hostbench: traced self times exceed wall time\n");
      correct = false;
    }
    int64_t window_spans = 0;
    for (const Tracer::Record& r : tracer.records()) {
      window_spans += r.start_ns >= window_from && r.start_ns < window_to;
    }
    const double n = static_cast<double>(ops);
    auto per_op_ms = [&](Layer l) {
      return static_cast<double>(op_self[idx(l)]) / 1e6 / n;
    };
    auto rate = [](double count, int64_t ns) {
      return ns > 0 ? count / (static_cast<double>(ns) / 1e9) : 0.0;
    };
    const Counters& c = pass_counters;
    metrics.Add("nn.build_ms",
                static_cast<double>(setup_self[idx(Layer::kNn)]) / 1e6, "ms");
    metrics.Add("nn.models", workload->models_built(), "count");
    metrics.Add("core.plan_ms", per_op_ms(Layer::kCore), "ms");
    metrics.Add("core.plan_calls", static_cast<double>(c.plan_calls), "count");
    metrics.Add("core.k_probes", static_cast<double>(c.k_probes), "count");
    metrics.Add("runtime.run_ms", per_op_ms(Layer::kRuntime), "ms");
    metrics.Add("runtime.runs", static_cast<double>(c.runtime_runs), "count");
    metrics.Add("runtime.replay_ratio",
                c.replay_attempted > 0
                    ? static_cast<double>(c.replay_replayed) /
                          static_cast<double>(c.replay_attempted)
                    : 0.0,
                "ratio");
    metrics.Add("sim.events", static_cast<double>(pass_events), "count");
    metrics.Add("sim.events_per_s",
                rate(static_cast<double>(window_events),
                     static_cast<int64_t>(op_total_ms * 1e6)),
                "1/s");
    metrics.Add("sim.probe_ms",
                static_cast<double>(probe_self[idx(Layer::kSim)]) / 1e6, "ms");
    metrics.Add("sim.probe.heap_ns_per_event", probes.heap_ns_per_event, "ns");
    metrics.Add("sim.probe.fluid_ns_per_completion",
                probes.fluid_ns_per_completion, "ns");
    metrics.Add("sim.probe.fluid_churn1000_ns_per_completion",
                probes.fluid_churn1000_ns_per_completion, "ns");
    metrics.Add("hw.probe_ms",
                static_cast<double>(probe_self[idx(Layer::kHw)]) / 1e6, "ms");
    metrics.Add("hw.probe.gpu_ns_per_kernel", probes.gpu_ns_per_kernel, "ns");
    metrics.Add("hw.probe.link_ns_per_chunk", probes.link_ns_per_chunk, "ns");
    metrics.Add("serve.run_ms", per_op_ms(Layer::kServe), "ms");
    metrics.Add("serve.requests", static_cast<double>(c.serve_requests),
                "count");
    metrics.Add("serve.requests_per_s",
                rate(static_cast<double>(window_counters.serve_requests),
                     op_total[idx(Layer::kServe)]),
                "1/s");
    metrics.Add("serve.router_decisions",
                static_cast<double>(c.router_decisions), "count");
    metrics.Add("search.run_ms", per_op_ms(Layer::kSearch), "ms");
    metrics.Add("search.analytic_evals", static_cast<double>(c.analytic_evals),
                "count");
    metrics.Add("search.evals_per_s",
                rate(static_cast<double>(window_counters.analytic_evals),
                     op_total[idx(Layer::kSearch)]),
                "1/s");
    metrics.Add("search.cache_hit_ratio",
                c.cache_hits + c.cache_misses > 0
                    ? static_cast<double>(c.cache_hits) /
                          static_cast<double>(c.cache_hits + c.cache_misses)
                    : 0.0,
                "ratio");
    metrics.Add("search.tier_b_evals", static_cast<double>(c.tier_b_evals),
                "count");
    metrics.Add("search.probe.eval_incremental_us", probes.eval_incremental_us,
                "us");
    metrics.Add("search.probe.eval_cold_us", probes.eval_cold_us, "us");
    metrics.Add("bench.ops", n, "count");
    metrics.Add("bench.trace_overhead_frac",
                SpanCostNs() * static_cast<double>(window_spans) /
                    (op_total_ms * 1e6),
                "ratio");

    const std::string path = args.trace_dir + "/hostbench-trace-" +
                             args.workload + "-" + std::to_string(args.seed) +
                             ".json";
    if (!tracer.WriteJson(path, "hostbench " + args.workload + " seed " +
                                    std::to_string(args.seed) + " digest " +
                                    digest_hex)) {
      std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", ops, failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] [--expect-digest HEX] "
                 "| --selftest\n");
    return 2;
  }
  if (args.selftest) {
    return hostbench::SelfTest();
  }
  return hostbench::Run(args);
}

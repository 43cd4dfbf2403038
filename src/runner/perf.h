// Wall-clock performance harness for the simulator core.
//
// `oobp bench --perf` (also tools/perf.sh) runs the selected scenarios with
// warm-up iterations followed by timed repeats, all serially on one thread so
// the numbers are not polluted by co-scheduling, and emits
// `BENCH_sim_perf.json`. A scenario runs `repeats` timed times, and more
// until its timed runs add up to kPerfMinTimedSeconds, so a sub-millisecond
// row's best is taken over enough runs to be stable:
//
//   {
//     "warmup": 1,
//     "repeats": 3,
//     "scenarios": {
//       "fig07_resnet50": {
//         "timed_runs": ...,       // repeats, or more for a fast scenario
//         "wall_ms_best": ...,     // fastest repeat (headline number)
//         "wall_ms_mean": ...,
//         "events": ...,           // simulator events processed per run
//         "events_per_sec": ...,   // events / best wall time
//         "planner_passes": ...,   // Algorithm 1 passes per run (rows
//         "speedup_evals": ...     //   that plan), co-run speedup evals
//       }, ...
//     },
//     "total": { "wall_ms_best": ..., "events": ..., "events_per_sec": ... }
//   }
//
// Event counts come from SimEngine::TotalProcessedEvents() deltas, planner
// counts from ThreadPlannerWork() deltas (src/core/joint_scheduler.h); they are
// deterministic per scenario, so events/sec is comparable across machines of
// the same class and across commits — this file seeds the repo's perf
// trajectory (see DESIGN.md §6/§9). Wall-clock fields are intentionally NOT
// golden-gated: only the simulation *results* (BENCH_<scenario>.json) must be
// byte-identical across commits.
//
// `--check` adds the perf regression gate: measured per-scenario event
// counts are compared against the committed bench/perf_baseline.json. Event
// counts are exact and machine-independent, so an INCREASE over the baseline
// hard-fails (someone made every simulation do more work — e.g. broke the
// steady-state replay); a decrease is an improvement and only prompts a
// baseline re-seed. Planner passes and speedup evaluations are gated the
// same way. Wall-clock bands are informational and only evaluated on
// Release builds (sanitizer builds are arbitrarily slower).

#ifndef OOBP_SRC_RUNNER_PERF_H_
#define OOBP_SRC_RUNNER_PERF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/runner/registry.h"

namespace oobp {

// The timed wall a scenario's runs must add up to (see above).
inline constexpr double kPerfMinTimedSeconds = 0.05;

struct PerfOptions {
  // Default perf suite: the single-GPU figure-7 scenarios plus the
  // data-parallel, pipeline-scaling, serving, steady-state, fleet and
  // cluster families — every simulation path whose throughput the repo
  // tracks. search_eval_perf tracks the search's candidate scorer
  // (src/search): its throughput is measured in scored candidates/sec
  // rather than simulator events/sec and gated by the baseline's floor
  // entry.
  std::string filter =
      "fig07_*,fig10_*,fig13_*,serve_*,steady_*,fleet_rr_64,"
      "fleet_corun_ooo_64,cluster_ps_*,search_eval_perf";
  int warmup = 1;                  // untimed runs per scenario
  int repeats = 3;                 // timed runs per scenario, at least
  std::string output_dir = ".";    // BENCH_sim_perf.json lands here
  ScenarioParams params;           // forwarded to every scenario
  bool print = true;
  // Perf regression gate: compare against `baseline_path` and fail on
  // event-count inflation (`oobp bench --perf --check`).
  bool check = false;
  std::string baseline_path = "bench/perf_baseline.json";
};

// One measured scenario, as fed to the baseline gate.
struct PerfSample {
  std::string scenario;
  uint64_t events = 0;      // deterministic event count of a single run
  double wall_ms_best = 0;  // fastest timed repeat
  // Search candidate scores (FastScheduleEvaluator) of a single run; 0 for
  // scenarios that never search.
  uint64_t analytic_evals = 0;
  double analytic_per_sec = 0;  // analytic_evals / best wall time
  // Algorithm 1 work of a single run (PlannerWork); 0 for scenarios that
  // never plan.
  uint64_t planner_passes = 0;
  uint64_t speedup_evals = 0;
};

// Outcome of a baseline comparison. `failures` break the build (exit 1);
// `notices` are printed but do not affect the exit code.
struct PerfCheckReport {
  std::vector<std::string> failures;
  std::vector<std::string> notices;
  bool ok() const { return failures.empty(); }
};

// Compares measured samples against a baseline document (the content of
// bench/perf_baseline.json):
//
//   {
//     "wall_band_frac": 0.5,
//     "scenarios": { "fig07_resnet50": {"events": N, "wall_ms_best": X}, ... }
//   }
//
// Hard failures: unparsable baseline; measured events above the baseline
// count; measured planner_passes or speedup_evals above the baseline entry's
// (0 when the entry has none, so a scenario that starts planning fails
// until re-seeded); measured analytic_evals differing from a baseline "analytic_evals"
// entry (the count is bit-deterministic, so any drift means the search
// explored different candidates); and — only when `wall_bands`, i.e. on
// Release builds — analytic throughput below the baseline's
// "analytic_per_sec_floor" (the ISSUE-10 evals/sec floor; wall-clock
// dependent, so sanitizer builds skip it). Notices: measured events or planner
// counts below baseline (improvement — re-seed the baseline), a measured scenario
// missing from the baseline, a baseline scenario that `filter` (the run's
// scenario glob list) selects but the run did not measure, and (only when
// `wall_bands`) wall time above baseline * (1 + wall_band_frac). Exposed
// separately from RunPerf so the gate's policy is unit-testable without
// timing anything.
PerfCheckReport CheckPerfBaseline(const std::string& baseline_json,
                                  const std::vector<PerfSample>& measured,
                                  bool wall_bands,
                                  const std::string& filter = "*");

// Runs the harness; returns a process exit code (0 = every scenario ran,
// the JSON file was written, and — with `check` — the baseline gate passed).
int RunPerf(const PerfOptions& opts);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_PERF_H_

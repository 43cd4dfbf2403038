#include "src/runner/perf.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/str_util.h"
#include "src/core/joint_scheduler.h"
#include "src/runner/json.h"
#include "src/runner/glob.h"
#include "src/runner/registry.h"
#include "src/runner/runner.h"
#include "src/search/fast_eval.h"
#include "src/sim/engine.h"

// Baked in by the root CMakeLists so the gate knows whether wall-clock
// bands are meaningful (Release) or noise (sanitizer / debug builds).
#ifndef OOBP_BUILD_TYPE
#define OOBP_BUILD_TYPE ""
#endif

namespace oobp {

namespace {

struct PerfRow {
  const Scenario* scenario = nullptr;
  int timed_runs = 0;
  double wall_best_ms = 0.0;
  double wall_mean_ms = 0.0;
  uint64_t events = 0;  // per single run
  double events_per_sec = 0.0;
  uint64_t analytic_evals = 0;  // per single run; 0 off the search fast path
  double analytic_per_sec = 0.0;
  PlannerWork planner;  // per single run; 0 for scenarios that never plan
  bool ok = true;
  std::string error;
};

bool MeasureScenario(const Scenario& scenario, const PerfOptions& opts,
                     PerfRow* row) {
  using Clock = std::chrono::steady_clock;
  row->scenario = &scenario;
  try {
    for (int i = 0; i < opts.warmup; ++i) {
      scenario.run(opts.params);
    }
    // At least `repeats` timed runs, and more until they add up to
    // kPerfMinTimedSeconds: the best of three sub-millisecond runs is noise.
    double best_s = -1.0;
    double sum_s = 0.0;
    while (row->timed_runs < opts.repeats || sum_s < kPerfMinTimedSeconds) {
      ++row->timed_runs;
      const uint64_t events_before = SimEngine::TotalProcessedEvents();
      const uint64_t analytic_before =
          FastScheduleEvaluator::TotalAnalyticEvals();
      const PlannerWork planner_before = ThreadPlannerWork();
      const auto start = Clock::now();
      scenario.run(opts.params);
      const double s =
          std::chrono::duration<double>(Clock::now() - start).count();
      row->events = SimEngine::TotalProcessedEvents() - events_before;
      row->analytic_evals =
          FastScheduleEvaluator::TotalAnalyticEvals() - analytic_before;
      const PlannerWork planner_after = ThreadPlannerWork();
      row->planner.passes = planner_after.passes - planner_before.passes;
      row->planner.speedup_evals =
          planner_after.speedup_evals - planner_before.speedup_evals;
      sum_s += s;
      if (best_s < 0.0 || s < best_s) {
        best_s = s;
      }
    }
    row->wall_best_ms = best_s * 1e3;
    row->wall_mean_ms = sum_s / row->timed_runs * 1e3;
    row->events_per_sec =
        best_s > 0.0 ? static_cast<double>(row->events) / best_s : 0.0;
    row->analytic_per_sec =
        best_s > 0.0 ? static_cast<double>(row->analytic_evals) / best_s
                     : 0.0;
    return true;
  } catch (const std::exception& e) {
    row->ok = false;
    row->error = e.what();
    return false;
  } catch (...) {
    row->ok = false;
    row->error = "unknown exception";
    return false;
  }
}

}  // namespace

PerfCheckReport CheckPerfBaseline(const std::string& baseline_json,
                                  const std::vector<PerfSample>& measured,
                                  bool wall_bands, const std::string& filter) {
  PerfCheckReport report;
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(baseline_json, &error);
  if (!doc.has_value() || !doc->is_object()) {
    report.failures.push_back("perf baseline unparsable: " +
                              (error.empty() ? "not an object" : error));
    return report;
  }
  double band = 0.5;
  if (const JsonValue* b = doc->Find("wall_band_frac");
      b != nullptr && b->is_number()) {
    band = b->number_value();
  }
  const JsonValue* scenarios = doc->Find("scenarios");
  if (scenarios == nullptr || !scenarios->is_object()) {
    report.failures.push_back("perf baseline has no 'scenarios' object");
    return report;
  }

  std::map<std::string, bool> seen;  // baseline entries the filter selects
  for (const auto& [name, entry] : scenarios->object_items()) {
    if (MatchAnyGlob(filter, name)) {
      seen[name] = false;
    }
  }
  for (const PerfSample& m : measured) {
    const JsonValue* entry = scenarios->Find(m.scenario);
    if (entry == nullptr || !entry->is_object()) {
      report.notices.push_back(StrFormat(
          "%s: not in baseline (%llu events) — re-seed perf_baseline.json",
          m.scenario.c_str(), static_cast<unsigned long long>(m.events)));
      continue;
    }
    seen[m.scenario] = true;
    const JsonValue* events = entry->Find("events");
    if (events == nullptr || !events->is_number()) {
      report.failures.push_back(m.scenario + ": baseline entry has no event "
                                "count");
      continue;
    }
    // Planner work is as deterministic as events and gated the same way; an
    // entry without a count expects none.
    for (const auto& [key, measured_count] :
         {std::pair<const char*, uint64_t>{"planner_passes", m.planner_passes},
          {"speedup_evals", m.speedup_evals}}) {
      const JsonValue* count = entry->Find(key);
      const uint64_t expect_count =
          count != nullptr && count->is_number()
              ? static_cast<uint64_t>(count->number_value())
              : 0;
      if (measured_count > expect_count) {
        report.failures.push_back(StrFormat(
            "%s: %s inflated %llu -> %llu", m.scenario.c_str(), key,
            static_cast<unsigned long long>(expect_count),
            static_cast<unsigned long long>(measured_count)));
      } else if (measured_count < expect_count) {
        report.notices.push_back(StrFormat(
            "%s: %s improved %llu -> %llu — re-seed perf_baseline.json to "
            "lock it in",
            m.scenario.c_str(), key,
            static_cast<unsigned long long>(expect_count),
            static_cast<unsigned long long>(measured_count)));
      }
    }
    const uint64_t expect = static_cast<uint64_t>(events->number_value());
    if (m.events > expect) {
      // Event counts are deterministic; growth means every simulation of
      // this scenario now does strictly more work.
      report.failures.push_back(StrFormat(
          "%s: event count inflated %llu -> %llu (+%.1f%%)",
          m.scenario.c_str(), static_cast<unsigned long long>(expect),
          static_cast<unsigned long long>(m.events),
          100.0 * (static_cast<double>(m.events) - static_cast<double>(expect)) /
              static_cast<double>(expect)));
    } else if (m.events < expect) {
      report.notices.push_back(StrFormat(
          "%s: event count improved %llu -> %llu — re-seed "
          "perf_baseline.json to lock it in",
          m.scenario.c_str(), static_cast<unsigned long long>(expect),
          static_cast<unsigned long long>(m.events)));
    }
    // Analytic-evaluator gates (search fast path). The count is
    // bit-deterministic, so any drift from the baseline hard-fails in both
    // directions — fewer analytic evals is not an improvement, it means the
    // search explored different candidates. The throughput floor is the
    // evals/sec contract of the two-tier pipeline; wall-clock dependent, so
    // only Release builds (wall_bands) enforce it.
    if (const JsonValue* analytic = entry->Find("analytic_evals");
        analytic != nullptr && analytic->is_number()) {
      const uint64_t expect_evals =
          static_cast<uint64_t>(analytic->number_value());
      if (m.analytic_evals != expect_evals) {
        report.failures.push_back(StrFormat(
            "%s: analytic eval count drifted %llu -> %llu (deterministic; "
            "re-derive the baseline only with a deliberate search change)",
            m.scenario.c_str(), static_cast<unsigned long long>(expect_evals),
            static_cast<unsigned long long>(m.analytic_evals)));
      }
    }
    if (const JsonValue* floor = entry->Find("analytic_per_sec_floor");
        wall_bands && floor != nullptr && floor->is_number() &&
        floor->number_value() > 0.0 &&
        m.analytic_per_sec < floor->number_value()) {
      report.failures.push_back(StrFormat(
          "%s: scorer throughput %.0f evals/s below the floor %.0f evals/s",
          m.scenario.c_str(), m.analytic_per_sec, floor->number_value()));
    }
    const JsonValue* wall = entry->Find("wall_ms_best");
    if (wall_bands && wall != nullptr && wall->is_number() &&
        wall->number_value() > 0.0 &&
        m.wall_ms_best > wall->number_value() * (1.0 + band)) {
      report.notices.push_back(StrFormat(
          "%s: wall %.2f ms vs baseline %.2f ms (band +%.0f%%) — "
          "informational",
          m.scenario.c_str(), m.wall_ms_best, wall->number_value(),
          100.0 * band));
    }
  }
  for (const auto& [name, was_measured] : seen) {
    if (!was_measured) {
      report.notices.push_back(name +
                               ": in baseline but not measured by this run");
    }
  }
  return report;
}

int RunPerf(const PerfOptions& opts) {
  if (opts.warmup < 0 || opts.repeats < 1) {
    std::fprintf(stderr, "perf: need --warmup >= 0 and --repeats >= 1\n");
    return 2;
  }
  const std::vector<const Scenario*> matched =
      ScenarioRegistry::Global().Match(opts.filter);
  if (matched.empty()) {
    std::fprintf(stderr, "perf: no scenario matches filter '%s'\n",
                 opts.filter.c_str());
    return 2;
  }

  std::vector<PerfRow> rows(matched.size());
  int failures = 0;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (!MeasureScenario(*matched[i], opts, &rows[i])) {
      ++failures;
    }
    if (opts.print) {
      const PerfRow& r = rows[i];
      if (r.ok) {
        std::printf("perf %-24s %8.2f ms best  %8.2f ms mean  %12llu events"
                    "  %10.0f ev/s\n",
                    r.scenario->name.c_str(), r.wall_best_ms, r.wall_mean_ms,
                    static_cast<unsigned long long>(r.events),
                    r.events_per_sec);
        if (r.analytic_evals > 0) {
          std::printf("perf %-24s %38llu analytic evals  %10.0f evals/s\n",
                      "", static_cast<unsigned long long>(r.analytic_evals),
                      r.analytic_per_sec);
        }
        if (r.planner.passes > 0) {
          std::printf("perf %-24s %38llu planner passes  %10llu speedup "
                      "evals\n",
                      "", static_cast<unsigned long long>(r.planner.passes),
                      static_cast<unsigned long long>(r.planner.speedup_evals));
        }
      } else {
        std::printf("perf %-24s FAILED: %s\n", r.scenario->name.c_str(),
                    r.error.c_str());
      }
    }
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("warmup", JsonValue::Number(opts.warmup));
  doc.Set("repeats", JsonValue::Number(opts.repeats));
  JsonValue scenarios = JsonValue::Object();
  double total_best_ms = 0.0;
  uint64_t total_events = 0;
  for (const PerfRow& r : rows) {
    if (!r.ok) {
      continue;
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("timed_runs", JsonValue::Number(r.timed_runs));
    entry.Set("wall_ms_best", JsonValue::Number(r.wall_best_ms));
    entry.Set("wall_ms_mean", JsonValue::Number(r.wall_mean_ms));
    entry.Set("events", JsonValue::Number(static_cast<double>(r.events)));
    entry.Set("events_per_sec", JsonValue::Number(r.events_per_sec));
    if (r.planner.passes > 0) {
      entry.Set("planner_passes",
                JsonValue::Number(static_cast<double>(r.planner.passes)));
      entry.Set("speedup_evals",
                JsonValue::Number(static_cast<double>(r.planner.speedup_evals)));
    }
    if (r.analytic_evals > 0) {
      entry.Set("analytic_evals",
                JsonValue::Number(static_cast<double>(r.analytic_evals)));
      entry.Set("analytic_per_sec", JsonValue::Number(r.analytic_per_sec));
    }
    scenarios.Set(r.scenario->name, std::move(entry));
    total_best_ms += r.wall_best_ms;
    total_events += r.events;
  }
  doc.Set("scenarios", std::move(scenarios));
  JsonValue total = JsonValue::Object();
  total.Set("wall_ms_best", JsonValue::Number(total_best_ms));
  total.Set("events", JsonValue::Number(static_cast<double>(total_events)));
  total.Set("events_per_sec",
            JsonValue::Number(total_best_ms > 0.0
                                  ? static_cast<double>(total_events) /
                                        (total_best_ms / 1e3)
                                  : 0.0));
  doc.Set("total", std::move(total));
  // Host metadata so archived perf JSONs are comparable: wall-clock numbers
  // only mean something relative to the machine and build that produced them.
  JsonValue host = JsonValue::Object();
  host.Set("hardware_concurrency",
           JsonValue::Number(static_cast<double>(
               std::thread::hardware_concurrency())));
  host.Set("compiler", JsonValue::Str(__VERSION__));
  host.Set("build_type", JsonValue::Str(OOBP_BUILD_TYPE));
  doc.Set("host", std::move(host));

  const std::string path = opts.output_dir + "/BENCH_sim_perf.json";
  if (!WriteBenchFile(path, doc.Dump())) {
    std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
    return 1;
  }
  if (opts.print) {
    std::printf("perf: %zu scenario(s), %d failed; total %.2f ms, "
                "%llu events, %.0f ev/s -> %s\n",
                rows.size(), failures, total_best_ms,
                static_cast<unsigned long long>(total_events),
                total_best_ms > 0.0
                    ? static_cast<double>(total_events) / (total_best_ms / 1e3)
                    : 0.0,
                path.c_str());
  }

  if (opts.check) {
    std::ifstream in(opts.baseline_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "perf: cannot read baseline %s\n",
                   opts.baseline_path.c_str());
      return 1;
    }
    std::ostringstream baseline;
    baseline << in.rdbuf();
    std::vector<PerfSample> samples;
    for (const PerfRow& r : rows) {
      if (r.ok) {
        samples.push_back({r.scenario->name, r.events, r.wall_best_ms,
                           r.analytic_evals, r.analytic_per_sec,
                           r.planner.passes, r.planner.speedup_evals});
      }
    }
    const bool wall_bands = std::string(OOBP_BUILD_TYPE) == "Release";
    const PerfCheckReport report =
        CheckPerfBaseline(baseline.str(), samples, wall_bands, opts.filter);
    for (const std::string& n : report.notices) {
      std::printf("perf-check NOTICE  %s\n", n.c_str());
    }
    for (const std::string& f : report.failures) {
      std::printf("perf-check FAIL    %s\n", f.c_str());
    }
    std::printf("perf-check: %zu failure(s), %zu notice(s) vs %s "
                "(wall bands %s)\n",
                report.failures.size(), report.notices.size(),
                opts.baseline_path.c_str(), wall_bands ? "on" : "off");
    if (!report.ok()) {
      return 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace oobp

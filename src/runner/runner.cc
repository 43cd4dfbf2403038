#include "src/runner/runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "src/common/str_util.h"
#include "src/runner/cluster_scenarios.h"
#include "src/runner/fleet_scenarios.h"
#include "src/runner/json.h"
#include "src/runner/paper_scenarios.h"
#include "src/runner/perf.h"
#include "src/runner/search_scenarios.h"
#include "src/runner/serve_scenarios.h"
#include "src/runner/sweep_scenarios.h"
#include "src/sim/worker_pool.h"

namespace oobp {

std::string ScenarioJson(const Scenario& scenario,
                         const ScenarioResult& result) {
  JsonValue doc = JsonValue::Object();
  doc.Set("scenario", JsonValue::Str(scenario.name));
  doc.Set("figure", JsonValue::Str(scenario.figure));
  doc.Set("description", JsonValue::Str(scenario.description));
  JsonValue values = JsonValue::Object();
  for (const MetricKv& kv : result.values) {
    values.Set(kv.key, JsonValue::Number(kv.value));
  }
  doc.Set("values", std::move(values));
  JsonValue notes = JsonValue::Array();
  for (const std::string& note : result.notes) {
    notes.Append(JsonValue::Str(note));
  }
  doc.Set("notes", std::move(notes));
  return doc.Dump();
}

bool WriteBenchFile(const std::string& path, const std::string& text) {
  std::error_code ignored;
  std::filesystem::remove(path, ignored);
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  return !out.fail();
}

namespace {

int ResolveJobs(int jobs, size_t num_scenarios) {
  int n = jobs;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) {
      n = 1;
    }
  }
  if (static_cast<size_t>(n) > num_scenarios) {
    n = static_cast<int>(num_scenarios);
  }
  return n < 1 ? 1 : n;
}

void RunOne(const Scenario& scenario, const ScenarioParams& params,
            ScenarioRun* run) {
  const auto start = std::chrono::steady_clock::now();
  try {
    run->result = scenario.run(params);
    run->ok = true;
  } catch (const std::exception& e) {
    run->ok = false;
    run->error = e.what();
  } catch (...) {
    run->ok = false;
    run->error = "unknown exception";
  }
  run->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (run->ok) {
    run->json = ScenarioJson(scenario, run->result);
  }
}

void PrintRun(const ScenarioRun& run) {
  std::printf("== %s", run.scenario->name.c_str());
  if (!run.scenario->figure.empty()) {
    std::printf(" (%s)", run.scenario->figure.c_str());
  }
  std::printf(" — %s  [%.2fs]\n", run.scenario->description.c_str(),
              run.wall_seconds);
  if (!run.ok) {
    std::printf("  FAILED: %s\n", run.error.c_str());
    return;
  }
  for (const std::string& note : run.result.notes) {
    std::printf("  # %s\n", note.c_str());
  }
  for (const MetricKv& kv : run.result.values) {
    std::printf("  %-44s %s\n", kv.key.c_str(),
                JsonNumberToString(kv.value).c_str());
  }
  if (run.golden_compared) {
    if (run.golden_failures.empty()) {
      std::printf("  golden: OK\n");
    } else {
      for (const std::string& f : run.golden_failures) {
        std::printf("  golden MISMATCH: %s\n", f.c_str());
      }
    }
  }
}

}  // namespace

RunnerReport RunScenarios(const RunnerOptions& opts) {
  RunnerReport report;
  const std::vector<const Scenario*> matched =
      ScenarioRegistry::Global().Match(opts.filter);
  report.runs.resize(matched.size());
  for (size_t i = 0; i < matched.size(); ++i) {
    report.runs[i].scenario = matched[i];
  }

  // Longest first: results land in their registration-order slots, so the
  // dispatch order changes no output byte.
  std::vector<size_t> order(matched.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&matched](size_t a, size_t b) {
    return matched[a]->cost_hint > matched[b]->cost_hint;
  });

  WorkerPool pool(ResolveJobs(opts.jobs, matched.size()));
  pool.Run(order.size(), [&report, &opts, &order](size_t k, int) {
    ScenarioRun& run = report.runs[order[k]];
    RunOne(*run.scenario, opts.params, &run);
  });

  // Post-processing stays single-threaded and in registration order so the
  // printed report and any written files are deterministic.
  for (ScenarioRun& run : report.runs) {
    if (run.ok && !opts.golden_dir.empty()) {
      // A scenario without a golden file is simply not compared; a golden
      // file that exists but does not load fails with the parse error.
      const std::string path =
          GoldenPathFor(opts.golden_dir, run.scenario->name);
      if (std::filesystem::exists(path)) {
        run.golden_compared = true;
        std::string error;
        if (const auto spec = LoadGoldenFile(path, &error)) {
          run.golden_failures = CheckAgainstGolden(*spec, run.result);
        } else {
          run.golden_failures.push_back(error);
        }
        if (!run.golden_failures.empty()) {
          ++report.num_golden_failures;
        }
      }
    }
    if (run.ok && !opts.output_dir.empty()) {
      const std::string path =
          opts.output_dir + "/BENCH_" + run.scenario->name + ".json";
      if (!WriteBenchFile(path, run.json)) {
        run.ok = false;
        run.error = "cannot write " + path;
      }
    }
    if (!run.ok) {
      ++report.num_scenario_failures;
    }
    if (opts.print) {
      PrintRun(run);
    }
  }
  if (opts.print) {
    int compared = 0;
    for (const ScenarioRun& run : report.runs) {
      compared += run.golden_compared ? 1 : 0;
    }
    std::printf("\n%zu scenario(s), %d failed", report.runs.size(),
                report.num_scenario_failures);
    if (compared > 0) {
      std::printf("; %d golden-checked, %d mismatched", compared,
                  report.num_golden_failures);
    }
    std::printf("\n");
  }
  return report;
}

namespace {

// Scenarios grouped by label (the CTest-style train/serve taxonomy), each
// group in registration order. Labels print in first-appearance order, so
// adding a group never reshuffles existing output.
int ListScenarios() {
  const std::vector<Scenario>& all = ScenarioRegistry::Global().scenarios();
  std::vector<std::string> labels;
  for (const Scenario& s : all) {
    if (std::find(labels.begin(), labels.end(), s.label) == labels.end()) {
      labels.push_back(s.label);
    }
  }
  for (const std::string& label : labels) {
    std::printf("[%s]\n", label.c_str());
    for (const Scenario& s : all) {
      if (s.label == label) {
        std::printf("  %-32s %-10s %s\n", s.name.c_str(), s.figure.c_str(),
                    s.description.c_str());
      }
    }
  }
  std::printf("[perf]\n");
  std::printf("  %-32s %-10s %s\n", "(--perf harness)", "",
              "wall-clock timing over any --filter; see --help");
  return 0;
}

int BenchUsage() {
  std::fprintf(stderr,
               "usage: oobp bench [--list] [--filter=GLOB] [--jobs=N]\n"
               "                  [--out=DIR] [--golden[=DIR]] [--param k=v]\n"
               "                  [--perf] [--warmup=N] [--repeats=N]\n"
               "  --list         print scenarios grouped by label\n"
               "                 (train = paper figures, serve = inference\n"
               "                 serving, sweep = scaling sweeps, analyses\n"
               "                 and ablations, steady = long-horizon\n"
               "                 replay scenarios,\n"
               "                 fleet = multi-replica serving fleets,\n"
               "                 cluster = parameter-server training,\n"
               "                 search = schedule-search baselines)\n"
               "  --filter=GLOB  run scenarios matching GLOB (default '*';\n"
               "                 with --perf: '%s')\n"
               "  --jobs=N       thread-pool size; 0 = all cores (default 1)\n"
               "  --out=DIR      write BENCH_<scenario>.json files into DIR,\n"
               "                 which must exist (default .)\n"
               "  --golden[=DIR] compare against the golden files in DIR,\n"
               "                 which must exist (default bench/golden)\n"
               "  --param k=v    forward a parameter to every scenario\n"
               "  --perf         wall-clock harness: warm-up + timed repeats,\n"
               "                 emits BENCH_sim_perf.json (see src/runner/"
               "perf.h)\n"
               "  --warmup=N     untimed runs per scenario (default 1)\n"
               "  --repeats=N    timed runs per scenario (default 3)\n"
               "  --check[=PATH] with --perf: gate event counts against the\n"
               "                 committed baseline (default "
               "bench/perf_baseline.json);\n"
               "                 inflation fails, wall-clock bands are\n"
               "                 informational (Release builds only)\n",
               PerfOptions{}.filter.c_str());
  return 2;
}

}  // namespace

int BenchMain(int argc, char** argv) {
  RegisterPaperScenarios();
  RegisterServeScenarios();
  RegisterSweepScenarios();
  RegisterFleetScenarios();
  RegisterClusterScenarios();
  RegisterSearchScenarios();

  RunnerOptions opts;
  opts.output_dir = ".";
  bool list = false;
  bool perf = false;
  bool filter_given = false;
  PerfOptions perf_opts;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "unexpected argument '%s' (select scenarios with "
                   "--filter=GLOB)\n",
                   arg.c_str());
      return BenchUsage();
    }
    arg = arg.substr(2);
    std::string value;
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    if (has_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    // `--flag value` form for flags that require a value.
    auto next_value = [&]() -> std::string {
      if (has_value) {
        return value;
      }
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        return argv[++i];
      }
      return "";
    };
    // Integer flag values must parse whole and be >= `min`; anything else
    // is a usage error, never a silent 0.
    auto int_value = [&](int min, int* out) {
      const std::string v = next_value();
      if (ParseWhole(v, out) && *out >= min) {
        return true;
      }
      std::fprintf(stderr, "--%s needs an integer >= %d, got '%s'\n",
                   arg.c_str(), min, v.c_str());
      return false;
    };
    if (arg == "list") {
      list = true;
    } else if (arg == "perf") {
      perf = true;
    } else if (arg == "warmup") {
      if (!int_value(0, &perf_opts.warmup)) {
        return BenchUsage();
      }
    } else if (arg == "repeats") {
      if (!int_value(1, &perf_opts.repeats)) {
        return BenchUsage();
      }
    } else if (arg == "check") {
      perf_opts.check = true;
      if (has_value && !value.empty()) {
        perf_opts.baseline_path = value;
      }
    } else if (arg == "filter") {
      opts.filter = next_value();
      filter_given = true;
    } else if (arg == "jobs") {
      if (!int_value(0, &opts.jobs)) {
        return BenchUsage();
      }
    } else if (arg == "out") {
      opts.output_dir = next_value();
    } else if (arg == "golden") {
      const std::string dir = next_value();
      opts.golden_dir = dir.empty() ? "bench/golden" : dir;
    } else if (arg == "param") {
      const std::string kv = next_value();
      const size_t split = kv.find('=');
      if (split == std::string::npos) {
        std::fprintf(stderr, "--param needs key=value, got '%s'\n",
                     kv.c_str());
        return BenchUsage();
      }
      opts.params.Set(kv.substr(0, split), kv.substr(split + 1));
    } else if (arg == "help") {
      return BenchUsage();
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", arg.c_str());
      return BenchUsage();
    }
  }
  if (list) {
    return ListScenarios();
  }
  // A misspelled directory would otherwise gate nothing or write nothing.
  for (const std::string* dir : {&opts.output_dir, &opts.golden_dir}) {
    if (!dir->empty() && !std::filesystem::is_directory(*dir)) {
      std::fprintf(stderr, "no such directory: %s\n", dir->c_str());
      return 2;
    }
  }
  if (perf) {
    if (filter_given) {
      perf_opts.filter = opts.filter;
    }
    perf_opts.output_dir = opts.output_dir;
    perf_opts.params = opts.params;
    return RunPerf(perf_opts);
  }
  const RunnerReport report = RunScenarios(opts);
  if (report.runs.empty()) {
    std::fprintf(stderr, "no scenario matches filter '%s'\n",
                 opts.filter.c_str());
    return 2;
  }
  return report.ok() ? 0 : 1;
}

}  // namespace oobp

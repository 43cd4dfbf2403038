// Parallel scenario runner.
//
// Executes every registered scenario matching a glob across a std::thread
// pool. Simulations are deterministic and share no state, so the full suite
// is embarrassingly parallel; results are collected into registration-order
// slots, which makes the emitted JSON byte-identical whatever --jobs is.
//
// CLI (wired as `oobp bench`):
//
//   oobp bench --list
//   oobp bench --filter='fig0[456]*' --jobs=8
//   oobp bench --filter='fig10_*' --out=results --golden=bench/golden
//   oobp bench --param k=3 --param batch=64
//
// Each scenario writes `<out>/BENCH_<scenario>.json`; --golden compares
// results against `<golden>/<scenario>.json` tolerance files and the exit
// code reports any scenario error or golden mismatch. A missing golden file
// means "not compared"; one that does not parse is a golden mismatch, and a
// result file that cannot be written fails its scenario.

#ifndef OOBP_SRC_RUNNER_RUNNER_H_
#define OOBP_SRC_RUNNER_RUNNER_H_

#include <string>
#include <vector>

#include "src/runner/golden.h"
#include "src/runner/registry.h"
#include "src/runner/result.h"

namespace oobp {

struct RunnerOptions {
  std::string filter = "*";
  int jobs = 1;             // <= 0 selects std::thread::hardware_concurrency
  std::string output_dir;   // empty: do not write BENCH_*.json files
  std::string golden_dir;   // empty: skip golden comparison
  ScenarioParams params;    // forwarded to every scenario
  bool print = true;        // human-readable report on stdout
};

struct ScenarioRun {
  const Scenario* scenario = nullptr;
  ScenarioResult result;
  std::string json;  // deterministic serialization of `result`
  bool ok = true;    // scenario body completed
  std::string error;
  bool golden_compared = false;
  std::vector<std::string> golden_failures;
  double wall_seconds = 0.0;  // host time; reporting only, never serialized
};

struct RunnerReport {
  std::vector<ScenarioRun> runs;  // registration order
  int num_scenario_failures = 0;
  int num_golden_failures = 0;
  bool ok() const {
    return num_scenario_failures == 0 && num_golden_failures == 0;
  }
};

// Serializes one scenario's result (stable field and key order).
std::string ScenarioJson(const Scenario& scenario, const ScenarioResult& result);

// Writes `text` to `path` as a new file, replacing any file there, and
// returns false unless every byte reached it. Replacing, not truncating:
// rewriting a directory of BENCH files in place takes seconds where writing
// fresh ones takes milliseconds.
bool WriteBenchFile(const std::string& path, const std::string& text);

// Runs all scenarios matching opts.filter on a thread pool of opts.jobs,
// starting them in descending Scenario::cost_hint order.
RunnerReport RunScenarios(const RunnerOptions& opts);

// `oobp bench` entry point: argv[0] is the binary and argv[1] the "bench"
// subcommand. Parses the flags that follow (a positional argument is a usage
// error), registers every scenario, and returns a process exit code.
int BenchMain(int argc, char** argv);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_RUNNER_H_

// Golden-value comparison: checked-in expected values with tolerances that
// guard the paper's headline numbers against regression.
//
// A golden file is JSON named `<scenario>.json` inside the --golden
// directory:
//
//   {
//     "scenario": "fig05_mp_unit",
//     "checks": [
//       {"key": "unit_a", "expect": 23, "abs_tol": 0.05},
//       {"key": "speedup_c", "expect": 1.32, "rel_tol": 0.05},
//       {"key": "b.throughput", "min": 1000.0, "max": 40000.0}
//     ]
//   }
//
// A check may pin a value (`expect` with `rel_tol` and/or `abs_tol`; both
// default to 0 = exact) or bound it (`min` / `max`, inclusive). A key
// missing from the scenario's result always fails.

#ifndef OOBP_SRC_RUNNER_GOLDEN_H_
#define OOBP_SRC_RUNNER_GOLDEN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/runner/result.h"

namespace oobp {

struct GoldenCheck {
  std::string key;
  bool has_expect = false;
  double expect = 0.0;
  double rel_tol = 0.0;
  double abs_tol = 0.0;
  bool has_min = false;
  double min = 0.0;
  bool has_max = false;
  double max = 0.0;
};

struct GoldenSpec {
  std::string scenario;
  std::vector<GoldenCheck> checks;
};

// `<dir>/<scenario>.json`.
std::string GoldenPathFor(const std::string& dir, const std::string& scenario);

// Parses a golden file; nullopt (with *error filled) on I/O or parse
// failure. A check entry with neither expect nor min/max is a parse error.
std::optional<GoldenSpec> LoadGoldenFile(const std::string& path,
                                         std::string* error = nullptr);

// Evaluates one check; true = pass.
bool GoldenCheckPasses(const GoldenCheck& check, double value);

// All failing checks as human-readable messages; empty vector = pass.
std::vector<std::string> CheckAgainstGolden(const GoldenSpec& spec,
                                            const ScenarioResult& result);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_GOLDEN_H_

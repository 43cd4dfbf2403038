// Scenario results: an ordered, serializable key/value map produced by each
// registered experiment, alongside the TrainMetrics of its headline runs.
//
// Keys are flat dotted strings (`"c.throughput"`, `"speedup_c_over_a"`).
// Order is insertion order and is part of the serialized form, so a
// scenario's JSON is byte-stable across runs and across --jobs settings.

#ifndef OOBP_SRC_RUNNER_RESULT_H_
#define OOBP_SRC_RUNNER_RESULT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/runtime/metrics.h"

namespace oobp {

struct ScenarioResult {
  // Ordered measurement map; the scenario's machine-readable payload.
  std::vector<MetricKv> values;
  // Free-form annotations carried into the JSON (model names, configs).
  std::vector<std::string> notes;

  // Appends, or overwrites in place when the key already exists.
  void Set(const std::string& key, double value);
  // Records all TrainMetrics fields under `prefix` (e.g. "a.iteration_ms").
  void SetMetrics(const std::string& prefix, const TrainMetrics& m);
  void AddNote(std::string note) { notes.push_back(std::move(note)); }

  // nullptr when absent.
  const double* Find(const std::string& key) const;
  double Get(const std::string& key, double def = 0.0) const;
};

// Empty when `a` and `b` hold the same keys in the same order with
// bit-identical values; otherwise the first difference. Tests use it to pin
// two producers of one scenario against each other.
std::string ValuesMismatch(const ScenarioResult& a, const ScenarioResult& b);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_RESULT_H_

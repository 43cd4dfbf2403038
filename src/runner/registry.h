// Scenario registry: every paper experiment registers as a named,
// parameterized function so the runner (and `oobp bench`) can enumerate,
// filter, and execute them — serially or across a thread pool.
//
// Scenarios must be pure: they read their ScenarioParams, run simulations
// (each simulation builds its own SimEngine, so scenarios share no mutable
// state), and return a ScenarioResult. That purity is what makes parallel
// execution produce byte-identical output to serial execution.

#ifndef OOBP_SRC_RUNNER_REGISTRY_H_
#define OOBP_SRC_RUNNER_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/runner/glob.h"
#include "src/runner/result.h"

namespace oobp {

// String-typed parameter bag with typed getters; CLI --param key=value
// overrides land here. GetInt/GetDouble throw std::invalid_argument, naming
// the key, when a present value does not parse as a whole number (the rule
// of ParseWhole in src/common/str_util.h); the runner reports that as a
// scenario failure.
class ScenarioParams {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string GetString(const std::string& key, const std::string& def) const;
  int GetInt(const std::string& key, int def) const;
  double GetDouble(const std::string& key, double def) const;
  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

struct Scenario {
  std::string name;         // unique id, e.g. "fig05_mp_unit"
  std::string figure;       // paper anchor, e.g. "Figure 5"
  std::string description;  // one line, shown by --list
  std::function<ScenarioResult(const ScenarioParams&)> run;
  // Scenario group, mirroring the CTest label taxonomy: "train" for the
  // paper's training experiments, "serve" for the inference-serving
  // subsystem. --list prints scenarios grouped by label. Declared after
  // `run` so the existing positional aggregate initializers keep working.
  std::string label = "train";
  // Rough serial run time in seconds. The runner starts scenarios in
  // descending hint order, registration order among equal hints, so a long
  // scenario does not start last and run alone on an idle pool. 0 = unhinted.
  double cost_hint = 0.0;
};

class ScenarioRegistry {
 public:
  // Process-wide registry used by the runner and `oobp bench`.
  static ScenarioRegistry& Global();

  // Aborts on duplicate names: scenario ids key golden files and JSON
  // output, so a collision is a programming error.
  void Register(Scenario scenario);

  const Scenario* Find(const std::string& name) const;
  // All scenarios whose name matches `glob` (a comma-separated glob list;
  // see src/runner/glob.h), in registration order.
  std::vector<const Scenario*> Match(const std::string& glob) const;
  const std::vector<Scenario>& scenarios() const { return scenarios_; }
  size_t size() const { return scenarios_.size(); }

  // Test-only: drops all registrations.
  void Clear() { scenarios_.clear(); }

 private:
  std::vector<Scenario> scenarios_;
};

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_REGISTRY_H_

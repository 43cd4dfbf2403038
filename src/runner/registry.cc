#include "src/runner/registry.h"

#include <stdexcept>

#include "src/common/check.h"
#include "src/common/str_util.h"
#include "src/runner/glob.h"

namespace oobp {

std::string ScenarioParams::GetString(const std::string& key,
                                      const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int ScenarioParams::GetInt(const std::string& key, int def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  int value = 0;
  if (!ParseWhole(it->second, &value)) {
    throw std::invalid_argument("param '" + key + "': '" + it->second +
                                "' is not an integer");
  }
  return value;
}

double ScenarioParams::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return def;
  }
  double value = 0.0;
  if (!ParseWhole(it->second, &value)) {
    throw std::invalid_argument("param '" + key + "': '" + it->second +
                                "' is not a number");
  }
  return value;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

void ScenarioRegistry::Register(Scenario scenario) {
  OOBP_CHECK(!scenario.name.empty());
  OOBP_CHECK(scenario.run != nullptr) << scenario.name;
  OOBP_CHECK(Find(scenario.name) == nullptr)
      << "duplicate scenario '" << scenario.name << "'";
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::Match(
    const std::string& glob) const {
  std::vector<const Scenario*> out;
  for (const Scenario& s : scenarios_) {
    if (MatchAnyGlob(glob, s.name)) {
      out.push_back(&s);
    }
  }
  return out;
}

}  // namespace oobp

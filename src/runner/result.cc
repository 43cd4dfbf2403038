#include "src/runner/result.h"

#include <cstring>

#include "src/common/str_util.h"

namespace oobp {

void ScenarioResult::Set(const std::string& key, double value) {
  for (MetricKv& kv : values) {
    if (kv.key == key) {
      kv.value = value;
      return;
    }
  }
  values.push_back({key, value});
}

void ScenarioResult::SetMetrics(const std::string& prefix,
                                const TrainMetrics& m) {
  for (const MetricKv& kv : MetricsToKv(m, prefix)) {
    Set(kv.key, kv.value);
  }
}

const double* ScenarioResult::Find(const std::string& key) const {
  for (const MetricKv& kv : values) {
    if (kv.key == key) {
      return &kv.value;
    }
  }
  return nullptr;
}

double ScenarioResult::Get(const std::string& key, double def) const {
  const double* v = Find(key);
  return v != nullptr ? *v : def;
}

std::string ValuesMismatch(const ScenarioResult& a, const ScenarioResult& b) {
  for (size_t i = 0; i < a.values.size() && i < b.values.size(); ++i) {
    const MetricKv& x = a.values[i];
    const MetricKv& y = b.values[i];
    if (x.key != y.key) {
      return StrFormat("value %zu: key %s vs %s", i, x.key.c_str(),
                       y.key.c_str());
    }
    if (std::memcmp(&x.value, &y.value, sizeof(double)) != 0) {
      return StrFormat("%s: %.17g vs %.17g", x.key.c_str(), x.value, y.value);
    }
  }
  if (a.values.size() != b.values.size()) {
    return StrFormat("%zu values vs %zu", a.values.size(), b.values.size());
  }
  return "";
}

}  // namespace oobp

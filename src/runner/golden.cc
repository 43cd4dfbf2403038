#include "src/runner/golden.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/common/str_util.h"
#include "src/runner/json.h"

namespace oobp {

std::string GoldenPathFor(const std::string& dir, const std::string& scenario) {
  return dir + "/" + scenario + ".json";
}

std::optional<GoldenSpec> LoadGoldenFile(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string parse_error;
  const auto doc = JsonValue::Parse(buf.str(), &parse_error);
  if (!doc.has_value() || !doc->is_object()) {
    if (error != nullptr) {
      *error = path + ": " +
               (parse_error.empty() ? "not a JSON object" : parse_error);
    }
    return std::nullopt;
  }

  GoldenSpec spec;
  if (const JsonValue* name = doc->Find("scenario");
      name != nullptr && name->is_string()) {
    spec.scenario = name->string_value();
  }
  const JsonValue* checks = doc->Find("checks");
  if (checks == nullptr || !checks->is_array()) {
    if (error != nullptr) {
      *error = path + ": missing \"checks\" array";
    }
    return std::nullopt;
  }
  for (const JsonValue& item : checks->array_items()) {
    GoldenCheck check;
    if (const JsonValue* v = item.Find("key"); v != nullptr && v->is_string()) {
      check.key = v->string_value();
    }
    if (const JsonValue* v = item.Find("expect");
        v != nullptr && v->is_number()) {
      check.has_expect = true;
      check.expect = v->number_value();
    }
    if (const JsonValue* v = item.Find("rel_tol");
        v != nullptr && v->is_number()) {
      check.rel_tol = v->number_value();
    }
    if (const JsonValue* v = item.Find("abs_tol");
        v != nullptr && v->is_number()) {
      check.abs_tol = v->number_value();
    }
    if (const JsonValue* v = item.Find("min"); v != nullptr && v->is_number()) {
      check.has_min = true;
      check.min = v->number_value();
    }
    if (const JsonValue* v = item.Find("max"); v != nullptr && v->is_number()) {
      check.has_max = true;
      check.max = v->number_value();
    }
    if (check.key.empty() ||
        (!check.has_expect && !check.has_min && !check.has_max)) {
      if (error != nullptr) {
        *error = path + ": check needs a \"key\" and one of expect/min/max";
      }
      return std::nullopt;
    }
    spec.checks.push_back(std::move(check));
  }
  return spec;
}

bool GoldenCheckPasses(const GoldenCheck& check, double value) {
  if (check.has_expect) {
    const double tol =
        check.abs_tol + check.rel_tol * std::fabs(check.expect);
    if (std::fabs(value - check.expect) > tol) {
      return false;
    }
  }
  if (check.has_min && value < check.min) {
    return false;
  }
  if (check.has_max && value > check.max) {
    return false;
  }
  return true;
}

std::vector<std::string> CheckAgainstGolden(const GoldenSpec& spec,
                                            const ScenarioResult& result) {
  std::vector<std::string> failures;
  for (const GoldenCheck& check : spec.checks) {
    const double* value = result.Find(check.key);
    if (value == nullptr) {
      failures.push_back(StrFormat("key '%s' missing from result",
                                   check.key.c_str()));
      continue;
    }
    if (GoldenCheckPasses(check, *value)) {
      continue;
    }
    // A check may carry an expect and a band; report every constraint so a
    // band-only violation doesn't print as a (passing) tolerance failure.
    std::string detail;
    if (check.has_expect) {
      detail = StrFormat("expected %.6g (rel_tol %.3g, abs_tol %.3g)",
                         check.expect, check.rel_tol, check.abs_tol);
    }
    if (check.has_min || check.has_max) {
      if (!detail.empty()) {
        detail += ", ";
      }
      detail += StrFormat(
          "band [%s, %s]",
          check.has_min ? StrFormat("%.6g", check.min).c_str() : "-inf",
          check.has_max ? StrFormat("%.6g", check.max).c_str() : "+inf");
    }
    failures.push_back(StrFormat("%s = %.6g, %s", check.key.c_str(), *value,
                                 detail.c_str()));
  }
  return failures;
}

}  // namespace oobp

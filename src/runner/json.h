// Minimal JSON reader/writer for the scenario runner.
//
// The runner emits BENCH_<scenario>.json result files and reads checked-in
// golden-value files; both use a small JSON subset (objects, arrays,
// numbers, strings, booleans, null). Object key order is preserved and the
// number formatter is deterministic, so two runs that compute identical
// values serialize to byte-identical files — the property the parallel
// runner and the determinism tests rely on.

#ifndef OOBP_SRC_RUNNER_JSON_H_
#define OOBP_SRC_RUNNER_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace oobp {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }

  // Object access; Find returns nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  void Set(const std::string& key, JsonValue value);  // appends or replaces
  void Append(JsonValue value) { array_.push_back(std::move(value)); }

  // Serializes with 2-space indentation and a deterministic number format
  // (integers without a decimal point, otherwise shortest round-trip via
  // "%.12g").
  std::string Dump() const;

  // Strict parse of a complete document; returns nullopt and fills *error
  // (when non-null) on malformed input.
  static std::optional<JsonValue> Parse(const std::string& text,
                                        std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  void DumpTo(std::string* out, int indent) const;
};

// Deterministic formatting for a JSON number (shared with tests).
std::string JsonNumberToString(double v);

}  // namespace oobp

#endif  // OOBP_SRC_RUNNER_JSON_H_

// String formatting and parsing helpers shared by benches, traces, the
// command-line tools and examples.

#ifndef OOBP_SRC_COMMON_STR_UTIL_H_
#define OOBP_SRC_COMMON_STR_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace oobp {

// Whole-string number parsing (std::from_chars): false unless `text` is one
// in-range number of type T with nothing before or after it, so "4OO",
// "2x" and "" are rejected rather than read as 4, 2 and 0.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Joins the elements with the separator: {"a","b"} + "," -> "a,b".
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace oobp

#endif  // OOBP_SRC_COMMON_STR_UTIL_H_

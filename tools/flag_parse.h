#ifndef LOOM_TOOLS_FLAG_PARSE_H_
#define LOOM_TOOLS_FLAG_PARSE_H_

/// \file
/// Strict number parsing for the command-line tools' flag values. An
/// integer is decimal digits only (no sign, no whitespace), consumes the
/// whole string and fits its type; a double consumes the whole string and
/// is finite. A malformed value is rejected — never thrown, wrapped or
/// clamped into a different run — so each tool can exit 2 with a message.
/// Range checks beyond the type stay in each options struct's `Validate`.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace loom {
namespace tools {

/// Parses a decimal in [0, 2^64-1].
inline bool ParseU64(const char* text, uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

/// Parses a decimal in [0, 2^32-1].
inline bool ParseU32(const char* text, uint32_t* out) {
  uint64_t value = 0;
  if (!ParseU64(text, &value) || value > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(value);
  return true;
}

/// Parses a decimal in [1, 2^32-1].
inline bool ParsePositiveU32(const char* text, uint32_t* out) {
  uint32_t value = 0;
  if (!ParseU32(text, &value) || value == 0) return false;
  *out = value;
  return true;
}

/// Parses a finite decimal such as "0.25", "-1" or "1e-3". NaN, infinities,
/// hex floats, out-of-range exponents and trailing junk are rejected.
inline bool ParseFiniteDouble(const char* text, double* out) {
  if (text[0] == '\0' || text[std::strspn(text, "0123456789+-.eE")] != '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Prints "<tool>: <flag> needs <want>, got '<text>'" to stderr; returns
/// false.
inline bool RejectFlag(const char* tool, const std::string& flag,
                       const char* text, const char* want) {
  std::fprintf(stderr, "%s: %s needs %s, got '%s'\n", tool, flag.c_str(),
               want, text);
  return false;
}

/// Parses the value `text` of `tool`'s flag `flag` with the parser for the
/// type of `*out`; a malformed value is reported through `RejectFlag`.
inline bool ParseFlag(const char* tool, const std::string& flag,
                      const char* text, uint64_t* out) {
  return ParseU64(text, out) ||
         RejectFlag(tool, flag, text, "an integer in [0, 2^64-1]");
}
inline bool ParseFlag(const char* tool, const std::string& flag,
                      const char* text, uint32_t* out) {
  return ParseU32(text, out) ||
         RejectFlag(tool, flag, text, "an integer in [0, 4294967295]");
}
inline bool ParseFlag(const char* tool, const std::string& flag,
                      const char* text, double* out) {
  return ParseFiniteDouble(text, out) ||
         RejectFlag(tool, flag, text, "a finite number");
}

}  // namespace tools
}  // namespace loom

#endif  // LOOM_TOOLS_FLAG_PARSE_H_

#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace parqo {

std::string_view StripWhitespace(std::string_view s) {
  std::size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  std::size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool ParsePositiveInt(std::string_view s, int* out) {
  int n = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 1) return false;
  *out = n;
  return true;
}

bool ParseNonNegativeDouble(std::string_view s, double* out) {
  double d = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, d);
  if (ec != std::errc() || ptr != end || std::signbit(d) ||
      !std::isfinite(d)) {
    return false;
  }
  *out = d;
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string WithThousandsSep(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int until_sep = static_cast<int>(digits.size() % 3);
  if (until_sep == 0) until_sep = 3;
  for (char c : digits) {
    if (until_sep == 0) {
      out += ',';
      until_sep = 3;
    }
    out += c;
    --until_sep;
  }
  return out;
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.4fs", seconds);
  } else if (seconds < 100) {
    std::snprintf(buf, sizeof(buf), "%.3fs", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fs", seconds);
  }
  return buf;
}

std::string FormatCostE(double cost) {
  if (cost <= 0) return "0";
  if (!std::isfinite(cost)) return "inf";
  // %E rounds the mantissa and carries into the exponent in one step
  // (999999.9 -> "1.00E+06", never "10.00E5"), and stays exact on
  // denormals where log10/pow normalization drifts. Reformat its
  // "d.ddE[+-]0NN" exponent into the paper's bare form ("3.12E4").
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2E", cost);
  char* e = std::strchr(buf, 'E');
  if (e == nullptr) return buf;  // unreachable for finite positives
  long exp = std::strtol(e + 1, nullptr, 10);
  char out[48];
  std::snprintf(out, sizeof(out), "%.*sE%ld", static_cast<int>(e - buf),
                buf, exp);
  return out;
}

}  // namespace parqo

// Small string utilities shared by the parsers and report printers.

#ifndef PARQO_COMMON_STRINGS_H_
#define PARQO_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace parqo {

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Splits on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Parses all of `s` as a decimal int >= 1 into `*out`; false (leaving
/// `*out` alone) for anything else: empty, signed, trailing text, zero,
/// negative, or out of range. Command-line counts such as --nodes.
bool ParsePositiveInt(std::string_view s, int* out);

/// Parses all of `s` as a finite decimal number >= 0 ("0", "2.5", "1e-3")
/// into `*out`; false (leaving `*out` alone) for anything else: empty,
/// signed, trailing text, negative, inf, nan, or out of range.
/// Command-line budgets such as --timeout.
bool ParseNonNegativeDouble(std::string_view s, double* out);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Human-readable count: 12345678 -> "12,345,678".
std::string WithThousandsSep(std::uint64_t n);

/// Fixed-point seconds: 0.123456 -> "0.123s"; values >= 100 use no decimals.
std::string FormatSeconds(double seconds);

/// Scientific-style cost rendering matching the paper's Table VI ("3.12E4").
std::string FormatCostE(double cost);

}  // namespace parqo

#endif  // PARQO_COMMON_STRINGS_H_

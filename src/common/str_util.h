#ifndef RAQLET_COMMON_STR_UTIL_H_
#define RAQLET_COMMON_STR_UTIL_H_

// Small string helpers shared by the parsers and unparsers.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace raqlet {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `text` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(const std::string& text, char sep);

/// ASCII-only case conversions (query keywords are ASCII).
std::string ToLower(const std::string& text);
std::string ToUpper(const std::string& text);

/// True if `text` begins with / ends with the given affix.
bool StartsWith(const std::string& text, const std::string& prefix);
bool EndsWith(const std::string& text, const std::string& suffix);

/// Strips ASCII whitespace from both ends.
std::string Trim(const std::string& text);

/// Indents every line of `text` by `spaces` spaces.
std::string Indent(const std::string& text, int spaces);

/// The one checked conversion of number text, for every parser and
/// loader: all of `text` must read as a base-10 integer (ParseInt) or as
/// a float as strtod reads it (ParseFloat), and the value must fit. A
/// malformed text or an integer outside int64 or a float overflowing to
/// infinity is a ParseError; a float underflowing towards zero is not.
Result<int64_t> ParseInt(const std::string& text);
Result<double> ParseFloat(const std::string& text);

/// The one rendering of a float literal, for the DLIR and SQL printers:
/// the shortest digits that read back (ParseFloat) as the same double, in
/// fixed notation and always with a decimal point, so `2.0` stays a float
/// and no exponent appears. Infinities and NaN render as `inf`/`nan`.
std::string FormatFloat(double value);

}  // namespace raqlet

#endif  // RAQLET_COMMON_STR_UTIL_H_

#include "common/str_util.h"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace raqlet {

std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

std::string ToLower(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Trim(const std::string& text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string Indent(const std::string& text, int spaces) {
  std::string pad(static_cast<size_t>(spaces), ' ');
  std::string out;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!first) out += "\n";
    first = false;
    out += pad + line;
  }
  return out;
}

Result<int64_t> ParseInt(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || end != text.c_str() + text.size()) {
    return Status::ParseError("not a number: '" + text + "'");
  }
  if (errno == ERANGE) {
    return Status::ParseError("number out of range: '" + text + "'");
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseFloat(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || end != text.c_str() + text.size()) {
    return Status::ParseError("not a float: '" + text + "'");
  }
  if (errno == ERANGE && std::isinf(value)) {
    return Status::ParseError("float out of range: '" + text + "'");
  }
  return value;
}

std::string FormatFloat(double value) {
  // Fixed notation spells out the exponent: up to 309 integral digits, or
  // a fraction of up to 324 places for the smallest subnormal.
  std::array<char, 400> buf;
  auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                 std::chars_format::fixed);
  std::string out(buf.data(), ec == std::errc() ? end : buf.data());
  if (std::isfinite(value) && out.find('.') == std::string::npos) {
    out += ".0";
  }
  return out;
}

}  // namespace raqlet

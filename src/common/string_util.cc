#include "common/string_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace bigdansing {

std::vector<std::string> Split(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, char delim) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.push_back(delim);
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool LooksLikeInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

bool LooksLikeDouble(std::string_view s) {
  // Decimal numerals only: [+-] digits [. digits] [e [+-] digits], with at
  // least one mantissa digit. strtod's hex, "inf" and "nan" forms stay text.
  s = Trim(s);
  size_t i = 0;
  auto digits = [&] {
    const size_t start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    return i - start;
  };
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  size_t mantissa = digits();
  if (i < s.size() && s[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (digits() == 0) return false;
  }
  return i == s.size();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace bigdansing

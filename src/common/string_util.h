#ifndef BIGDANSING_COMMON_STRING_UTIL_H_
#define BIGDANSING_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace bigdansing {

/// Splits `input` on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view input, char delim);

/// Joins `parts` with `delim` between them.
std::string Join(const std::vector<std::string>& parts, char delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` (after trimming) parses fully as a signed integer.
bool LooksLikeInt(std::string_view s);

/// True if `s` (after trimming) is a decimal numeral: [+-] digits, an
/// optional fraction and exponent. Hex, "inf" and "nan" forms are not.
bool LooksLikeDouble(std::string_view s);

/// Escapes `s` for embedding inside a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n`/`\t`/`\r`/`\b`/`\f` use their two-character
/// forms, and any other control character becomes `\u00XX`, so every input
/// round-trips through a standards-conforming JSON parser.
std::string JsonEscape(std::string_view s);

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_STRING_UTIL_H_

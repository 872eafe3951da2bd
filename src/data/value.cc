#include "data/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"

namespace bigdansing {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(as_int());
  if (is_double()) return as_double();
  return 0.0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kDouble: {
      const double d = as_double();
      char buf[64];
      if (!std::isfinite(d)) {
        std::snprintf(buf, sizeof(buf), "%g", d);
        return buf;
      }
      // The shortest text that reads back as the same double. From 2^63 up
      // the plain form can be a digit string past int64, which Parse keeps
      // as text, so those magnitudes take the exponent form.
      const std::to_chars_result r =
          std::abs(d) >= 0x1p63
              ? std::to_chars(buf, buf + sizeof(buf), d,
                              std::chars_format::scientific)
              : std::to_chars(buf, buf + sizeof(buf), d);
      return std::string(buf, r.ptr);
    }
    case ValueType::kString:
      return as_string();
  }
  return "";
}

Value Value::Parse(std::string_view text) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) return Value::Null();
  if (LooksLikeInt(trimmed)) {
    int64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), v);
    if (ec == std::errc() && ptr == trimmed.data() + trimmed.size()) {
      return Value(v);
    }
    // Overflow: fall through to string.
    return Value(std::string(text));
  }
  if (LooksLikeDouble(trimmed)) {
    // A decimal numeral beyond double range (1e999) stays text, like an
    // int64 overflow: an infinity would write back as "inf".
    const double v = std::strtod(std::string(trimmed).c_str(), nullptr);
    if (std::isfinite(v)) return Value(v);
  }
  return Value(std::string(text));
}

int Value::Compare(const Value& other) const {
  // Nulls first.
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  // Cross-numeric comparison. Every NaN is one value, ordered after +inf,
  // so the order stays total (a NaN is equal to itself only).
  if (is_numeric() && other.is_numeric()) {
    const double a = AsNumber();
    const double b = other.AsNumber();
    if (a < b) return -1;
    if (a > b) return 1;
    return static_cast<int>(std::isnan(a)) - static_cast<int>(std::isnan(b));
  }
  // Numerics sort before strings.
  if (is_numeric() != other.is_numeric()) return is_numeric() ? -1 : 1;
  // Both strings.
  return as_string().compare(other.as_string());
}

namespace {

/// Integral doubles hash like ints so 1 == 1.0 implies equal hashes; every
/// NaN (any sign or payload) hashes alike, as Compare makes them one value.
uint64_t HashDouble(double d) {
  if (std::isnan(d)) return StableHashUint64(0x7FF8000000000000ULL);
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return StableHashUint64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return StableHashUint64(bits);
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x4E554C4CULL;  // "NULL"
    case ValueType::kInt: {
      // Compare orders ints through their double rounding, so beyond 2^53
      // distinct ints can compare equal; they then hash as that double.
      constexpr int64_t kExact = int64_t{1} << 53;
      const int64_t v = as_int();
      if (v >= -kExact && v <= kExact) {
        return StableHashUint64(static_cast<uint64_t>(v));
      }
      return HashDouble(static_cast<double>(v));
    }
    case ValueType::kDouble:
      return HashDouble(as_double());
    case ValueType::kString:
      return StableHashBytes(as_string());
  }
  return 0;
}

}  // namespace bigdansing

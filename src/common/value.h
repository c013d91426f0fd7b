#ifndef RAQLET_COMMON_VALUE_H_
#define RAQLET_COMMON_VALUE_H_

// Runtime value model shared by all three execution engines.
//
// Strings are interned in a SymbolTable (Soufflé-style) so a Value is a
// fixed-size tagged union and tuples hash/compare as plain words.

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace raqlet {

class SymbolTable;

/// Logical column types understood by the schema layer and the engines.
enum class ValueType {
  kNumber,  // 64-bit signed integer (Soufflé `number`)
  kFloat,   // 64-bit IEEE double (Soufflé `float`)
  kSymbol,  // interned string (Soufflé `symbol`)
  kBool,
  kNull,    // SQL NULL / absent optional property
};

const char* ValueTypeToString(ValueType type);

/// A fixed-size tagged runtime value. Total order across all values is
/// defined (by kind first, then payload) so Values can live in ordered
/// containers; equality is exact.
class Value {
 public:
  Value() : kind_(ValueType::kNull), int_(0) {}

  static Value Number(int64_t v) { return Value(ValueType::kNumber, v); }
  static Value Float(double v) {
    Value out;
    out.kind_ = ValueType::kFloat;
    out.float_ = v;
    return out;
  }
  /// `id` is an index into a SymbolTable.
  static Value Symbol(uint32_t id) {
    return Value(ValueType::kSymbol, static_cast<int64_t>(id));
  }
  static Value Bool(bool v) {
    return Value(ValueType::kBool, static_cast<int64_t>(v));
  }
  static Value Null() { return Value(); }

  /// Reassembles a value from a kind tag and the raw 64-bit payload word
  /// returned by RawBits(). Floats round-trip bit-exactly. This is the
  /// boxing boundary of the columnar Relation storage, which keeps payload
  /// words and kind tags in separate arrays.
  static Value FromRaw(ValueType kind, int64_t bits) {
    return Value(kind, bits);
  }

  /// The payload as a raw 64-bit word (floats bit-cast, not truncated).
  int64_t RawBits() const { return int_; }

  ValueType kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueType::kNull; }

  int64_t AsNumber() const { return int_; }
  double AsFloat() const { return float_; }
  uint32_t AsSymbol() const { return static_cast<uint32_t>(int_); }
  bool AsBool() const { return int_ != 0; }

  /// Numeric view: numbers and floats promote to double; other kinds are 0.
  double NumericValue() const {
    if (kind_ == ValueType::kFloat) return float_;
    return static_cast<double>(int_);
  }

  bool operator==(const Value& other) const {
    if (kind_ != other.kind_) return false;
    if (kind_ == ValueType::kFloat) return float_ == other.float_;
    return int_ == other.int_;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const {
    if (kind_ != other.kind_) return kind_ < other.kind_;
    if (kind_ == ValueType::kFloat) return float_ < other.float_;
    return int_ < other.int_;
  }

  /// Consistent with operator== (equal values hash equal, so the
  /// TupleHash-keyed join indexes find 0.0 from -0.0) and with the bit
  /// equality of TupleBitEq.
  size_t Hash() const {
    size_t h = static_cast<size_t>(kind_) * 0x9e3779b97f4a7c15ULL;
    uint64_t bits;
    if (kind_ == ValueType::kFloat) {
      // -0.0 hashes as 0.0, the one pair of distinct bits that == equates.
      bits = std::bit_cast<uint64_t>(float_ == 0.0 ? 0.0 : float_);
    } else {
      bits = static_cast<uint64_t>(int_);
    }
    h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }

  /// Renders the value; symbols are resolved through `symbols` when given,
  /// otherwise printed as `$<id>`.
  std::string ToString(const SymbolTable* symbols = nullptr) const;

 private:
  Value(ValueType kind, int64_t payload) : kind_(kind), int_(payload) {}

  ValueType kind_;
  union {
    int64_t int_;
    double float_;
  };
};

/// Interning table mapping strings to dense uint32 ids. Ids are stable for
/// the lifetime of the table. Not thread-safe; each Database owns one.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  /// Returns the id for `text`, interning it on first sight.
  uint32_t Intern(const std::string& text);

  /// Returns the id if present, or -1 cast to uint32 otherwise.
  static constexpr uint32_t kNotFound = static_cast<uint32_t>(-1);
  uint32_t Lookup(const std::string& text) const;

  const std::string& Resolve(uint32_t id) const;
  size_t size() const { return strings_.size(); }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t> index_;
};

/// A row of values. Tuples are the unit of storage and of engine exchange.
using Tuple = std::vector<Value>;

struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t h = t.size();
    for (const Value& v : t) {
      h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

/// Tuple equality by kind and raw payload word, the equality TupleHash is
/// built on and Relation dedups by. Unlike operator==, a NaN equals a NaN
/// with the same bits, and 0.0 and -0.0 differ.
struct TupleBitEq {
  bool operator()(const Tuple& a, const Tuple& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind() != b[i].kind() || a[i].RawBits() != b[i].RawBits()) {
        return false;
      }
    }
    return true;
  }
};

std::string TupleToString(const Tuple& t, const SymbolTable* symbols = nullptr);

}  // namespace raqlet

#endif  // RAQLET_COMMON_VALUE_H_

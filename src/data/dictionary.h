#ifndef BIGDANSING_DATA_DICTIONARY_H_
#define BIGDANSING_DATA_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/intern_table.h"
#include "data/row.h"
#include "data/value.h"
#include "dataflow/dataset.h"

namespace bigdansing {

/// An interned pool of distinct non-null values, sorted by Value's total
/// order. Code order equals Value order, so every ordering comparison over
/// encoded columns is a u32 compare, and per-code hashes are precomputed so
/// block keys can be rebuilt from codes without touching a Value.
///
/// Values that compare equal across physical types (int 1 == double 1.0)
/// intern to one code; which representative the pool keeps is
/// unspecified, which is safe because kernels only *decide* over codes —
/// violation cells are always materialized from the original rows.
class ValuePool {
 public:
  /// Code of a null cell. Larger than any valid code, so a single
  /// `code >= size()` test rejects both sentinels.
  static constexpr uint32_t kNullCode = 0xFFFFFFFFu;
  /// Code for a value absent from the pool (constants never seen in the
  /// data).
  static constexpr uint32_t kAbsentCode = 0xFFFFFFFEu;

  /// Takes ownership of `values`, which must be sorted by Value::Compare
  /// and deduplicated (EncodeColumns guarantees this).
  explicit ValuePool(std::vector<Value> values);

  size_t size() const { return values_.size(); }
  const Value& value(uint32_t code) const { return values_.key(code); }
  /// Precomputed Value::Hash() of `value(code)`.
  uint64_t hash(uint32_t code) const { return values_.hash(code); }

  /// Code of `v`: kNullCode for null, kAbsentCode when no pooled value
  /// compares equal, else the dense code. O(1): served from a hash index
  /// built once at construction.
  uint32_t CodeOf(const Value& v) const;

  /// First code whose value is >= `v` (clamped to size()). Together with
  /// UpperBound this turns constant range predicates into code compares:
  ///   value <  c  ⟺  code < LowerBound(c)
  ///   value <= c  ⟺  code < UpperBound(c)
  uint32_t LowerBound(const Value& v) const;
  /// First code whose value is > `v` (clamped to size()).
  uint32_t UpperBound(const Value& v) const;

 private:
  /// Values in code order, indexed for O(1) CodeOf (equality lookups
  /// dominate: every row of every encoded column makes one).
  InternTable<Value, std::hash<Value>> values_;
};

/// An append-only interning pool: each distinct non-null value takes the
/// next code on first sight, and its code never changes afterwards. Codes
/// follow arrival order, not Value order, so they answer equality only;
/// ordering needs a sorted ValuePool (GrowPool keeps one in step). Nulls
/// take ValuePool::kNullCode.
class StablePool {
 public:
  void Reserve(size_t n) { values_.Reserve(n); }

  size_t size() const { return values_.size(); }
  const Value& value(uint32_t code) const { return values_.key(code); }
  /// Precomputed Value::Hash() of `value(code)`.
  uint64_t hash(uint32_t code) const { return values_.hash(code); }

  /// Code of `v`, interning it first when new; kNullCode for null. The
  /// const& overload copies `v` only when it is new.
  uint32_t Intern(const Value& v) {
    return v.is_null() ? ValuePool::kNullCode : values_.Intern(v);
  }
  uint32_t Intern(Value&& v) {
    return v.is_null() ? ValuePool::kNullCode : values_.Intern(std::move(v));
  }

  /// Moves the interned values out in code order; the pool is spent
  /// afterwards (the encode path uses it as a dedup set).
  std::vector<Value> Take() { return values_.Take(); }

 private:
  InternTable<Value, std::hash<Value>> values_;
};

/// One dictionary-encoded column: a shared pool plus per-partition dense
/// code vectors aligned with the source dataset's partitions.
struct EncodedColumn {
  std::shared_ptr<const ValuePool> pool;
  std::vector<std::vector<uint32_t>> codes;
};

/// The encoded columns of one scoped dataset, keyed by detect-schema column
/// index.
struct EncodedColumnSet {
  std::unordered_map<size_t, EncodedColumn> columns;
  uint64_t rows = 0;
};

/// Dictionary-encodes the given columns of `data` in two stages
/// ("encode:pool" builds per-group pools from per-partition distinct sets,
/// "encode:codes" encodes rows morsel-wise). Each inner vector
/// of `groups` is a set of detect-schema column indices that share one pool
/// (required whenever a kernel compares codes *across* two columns); every
/// requested column appears in exactly one group.
EncodedColumnSet EncodeColumns(const Dataset<Row>& data,
                               const std::vector<std::vector<size_t>>& groups);

/// Grows a sorted pool by `fresh`: the result holds the union in Value
/// order, so old codes shift upward monotonically. `old_to_new[c]` is the
/// new code of old code `c`. A stream session keeps its rows' codes stable
/// (StablePool) and composes this map into its O(pool) stable -> sorted
/// translation instead of rewriting any stored code; kernels bound to the
/// old pool re-Bind against the new one (constant positions move with the
/// same map). `fresh` may contain nulls and duplicates (both ignored);
/// values already pooled are ignored. Returns the old pool unchanged (and
/// an identity map) when nothing new was added.
std::shared_ptr<const ValuePool> GrowPool(
    std::shared_ptr<const ValuePool> base, const std::vector<Value>& fresh,
    std::vector<uint32_t>* old_to_new);

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_DICTIONARY_H_

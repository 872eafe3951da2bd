#ifndef BIGDANSING_COMMON_INTERN_TABLE_H_
#define BIGDANSING_COMMON_INTERN_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bigdansing {

/// Dense ids for distinct keys in order of first appearance. Keys and their
/// hashes are stored in id order; lookups probe a flat open-addressing
/// (linear probing) index whose slots hold id + 1 (0 = empty). The index is
/// a power of two kept at most half full and grows by rehashing the cached
/// hashes. A probe compares cached hashes before it touches a key, and
/// nothing is allocated per key. `Hash` maps a Key to size_t; keys compare
/// with operator==.
template <typename Key, typename Hash>
class InternTable {
 public:
  InternTable() = default;
  /// Sizes the table for `n` keys; it grows past that.
  explicit InternTable(size_t n) { Reserve(n); }

  void Reserve(size_t n) {
    keys_.reserve(n);
    hashes_.reserve(n);
    if (slots_.size() < 2 * n + 16) Rehash(std::bit_ceil(2 * n + 16));
  }

  size_t size() const { return keys_.size(); }
  const Key& key(uint32_t id) const { return keys_[id]; }
  /// Cached Hash of `key(id)`.
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  /// All keys in id order.
  const std::vector<Key>& keys() const { return keys_; }

  /// Id of `key`, registering it as the next id when new. A const& key is
  /// copied only when new.
  template <typename K>
  uint32_t Intern(K&& key) {
    if ((keys_.size() + 1) * 2 > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    const uint64_t h = Hash()(key);
    size_t i = h & mask_;
    while (uint32_t slot = slots_[i]) {
      if (hashes_[slot - 1] == h && keys_[slot - 1] == key) return slot - 1;
      i = (i + 1) & mask_;
    }
    const auto id = static_cast<uint32_t>(keys_.size());
    slots_[i] = id + 1;
    keys_.push_back(std::forward<K>(key));
    hashes_.push_back(h);
    return id;
  }

  /// Id of `key`, or size() when it was never interned.
  uint32_t Find(const Key& key) const {
    if (slots_.empty()) return static_cast<uint32_t>(keys_.size());
    const uint64_t h = Hash()(key);
    size_t i = h & mask_;
    while (uint32_t slot = slots_[i]) {
      if (hashes_[slot - 1] == h && keys_[slot - 1] == key) return slot - 1;
      i = (i + 1) & mask_;
    }
    return static_cast<uint32_t>(keys_.size());
  }

  /// Moves the keys out in id order; the table is spent afterwards.
  std::vector<Key> Take() { return std::move(keys_); }

 private:
  void Rehash(size_t size) {
    slots_.assign(size, 0);
    mask_ = size - 1;
    for (size_t id = 0; id < keys_.size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i]) i = (i + 1) & mask_;
      slots_[i] = static_cast<uint32_t>(id + 1);
    }
  }

  std::vector<Key> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

}  // namespace bigdansing

#endif  // BIGDANSING_COMMON_INTERN_TABLE_H_

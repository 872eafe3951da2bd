#include "rules/similarity.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/hash.h"

namespace bigdansing {

namespace {

/// Myers/Hyyrö bit-parallel Levenshtein distance for a pattern `a` of 1 to
/// 64 bytes against text `b`: one 64-bit column of vertical deltas per
/// text byte instead of a DP row. `peq` entries are initialised only for
/// the bytes of `a` and `b`, the only ones read.
size_t BitParallelDistance(std::string_view a, std::string_view b) {
  uint64_t peq[256];
  for (unsigned char c : b) peq[c] = 0;
  for (unsigned char c : a) peq[c] = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = a.size();
  for (unsigned char c : b) {
    const uint64_t eq = peq[c];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) {
      ++score;
    } else if (mh & last) {
      --score;
    }
    ph = (ph << 1) | 1;  // row 0 grows by one per text byte
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

}  // namespace

size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  // `a` is now the shorter string.
  if (a.empty()) return b.size();
  if (a.size() <= 64) return BitParallelDistance(a, b);
  // DP over one row of |a|+1 entries, on the stack when it fits.
  constexpr size_t kStackRow = 256;
  size_t stack_row[kStackRow];
  std::vector<size_t> heap_row;
  size_t* row = stack_row;
  if (a.size() + 1 > kStackRow) {
    heap_row.resize(a.size() + 1);
    row = heap_row.data();
  }
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t prev_row = row[i];
      size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[i] = std::min({row[i - 1] + 1, row[i] + 1, subst});
      prev_diag = prev_row;
    }
  }
  return row[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaccardTrigramSimilarity(std::string_view a, std::string_view b) {
  auto trigrams = [](std::string_view s) {
    std::unordered_set<uint64_t> grams;
    if (s.size() < 3) {
      if (!s.empty()) grams.insert(StableHashBytes(s));
      return grams;
    }
    for (size_t i = 0; i + 3 <= s.size(); ++i) {
      grams.insert(StableHashBytes(s.substr(i, 3)));
    }
    return grams;
  };
  auto ga = trigrams(a);
  auto gb = trigrams(b);
  if (ga.empty() && gb.empty()) return 1.0;
  size_t inter = 0;
  for (uint64_t g : ga) inter += gb.count(g);
  size_t uni = ga.size() + gb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

bool IsSimilar(std::string_view a, std::string_view b, double threshold) {
  // Cheap length pre-filter: similarity can't reach the threshold when the
  // length gap alone exceeds the allowed edits.
  size_t longest = std::max(a.size(), b.size());
  size_t shortest = std::min(a.size(), b.size());
  if (longest > 0) {
    double best_possible =
        1.0 - static_cast<double>(longest - shortest) / static_cast<double>(longest);
    if (best_possible < threshold) return false;
  }
  return LevenshteinSimilarity(a, b) >= threshold;
}

}  // namespace bigdansing

#ifndef BIGDANSING_RULES_SIMILARITY_H_
#define BIGDANSING_RULES_SIMILARITY_H_

#include <string>
#include <string_view>

namespace bigdansing {

/// Levenshtein edit distance between `a` and `b` over bytes
/// (insert/delete/substitute, unit costs). Bit-parallel in O(max) time
/// when the shorter string has at most 64 bytes, else an O(|a|*|b|) DP
/// over one row of O(min) space.
size_t LevenshteinDistance(std::string_view a, std::string_view b);

/// Normalized Levenshtein similarity in [0, 1]: 1 - dist / max(|a|, |b|).
/// Two empty strings are fully similar (1.0).
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the character-trigram sets of `a` and `b`;
/// strings shorter than 3 characters are compared as whole tokens.
double JaccardTrigramSimilarity(std::string_view a, std::string_view b);

/// The `simF` of the paper's rule φU: true when the normalized Levenshtein
/// similarity reaches `threshold`.
bool IsSimilar(std::string_view a, std::string_view b, double threshold);

}  // namespace bigdansing

#endif  // BIGDANSING_RULES_SIMILARITY_H_

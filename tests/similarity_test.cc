#include "rules/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace bigdansing {
namespace {

TEST(Levenshtein, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "xy"), 2u);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(Levenshtein, SimilarityRange) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  double s = LevenshteinSimilarity("john smith", "jon smith");
  EXPECT_GT(s, 0.8);
  EXPECT_LT(s, 1.0);
}

class LevenshteinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LevenshteinProperty, MetricAxiomsOnRandomStrings) {
  Random rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::string a = rng.NextString(static_cast<int>(rng.NextBounded(12)));
    std::string b = rng.NextString(static_cast<int>(rng.NextBounded(12)));
    std::string c = rng.NextString(static_cast<int>(rng.NextBounded(12)));
    size_t ab = LevenshteinDistance(a, b);
    // Symmetry.
    EXPECT_EQ(ab, LevenshteinDistance(b, a));
    // Identity.
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);
    EXPECT_EQ(ab == 0, a == b);
    // Bounds: |len gap| <= d <= max len.
    size_t gap = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    EXPECT_GE(ab, gap);
    EXPECT_LE(ab, std::max(a.size(), b.size()));
    // Triangle inequality.
    EXPECT_LE(ab, LevenshteinDistance(a, c) + LevenshteinDistance(c, b));
  }
}

TEST_P(LevenshteinProperty, SingleEditDistanceIsOne) {
  Random rng(GetParam() + 1000);
  for (int trial = 0; trial < 30; ++trial) {
    std::string a = rng.NextString(8);
    std::string b = a;
    size_t pos = rng.NextBounded(b.size());
    switch (trial % 3) {
      case 0:
        b[pos] = b[pos] == 'z' ? 'a' : static_cast<char>(b[pos] + 1);
        break;
      case 1:
        b.erase(pos, 1);
        break;
      default:
        b.insert(pos, 1, '!');
        break;
    }
    EXPECT_EQ(LevenshteinDistance(a, b), 1u) << a << " vs " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LevenshteinProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(Jaccard, TrigramSimilarity) {
  EXPECT_DOUBLE_EQ(JaccardTrigramSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTrigramSimilarity("abcdef", "abcdef"), 1.0);
  EXPECT_EQ(JaccardTrigramSimilarity("abcdef", "uvwxyz"), 0.0);
  double s = JaccardTrigramSimilarity("bigdansing", "bigdansin");
  EXPECT_GT(s, 0.5);
  // Short strings compare as whole tokens.
  EXPECT_DOUBLE_EQ(JaccardTrigramSimilarity("ab", "ab"), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTrigramSimilarity("ab", "cd"), 0.0);
}

TEST(IsSimilar, ThresholdSemantics) {
  EXPECT_TRUE(IsSimilar("john", "john", 1.0));
  EXPECT_TRUE(IsSimilar("john smith", "jon smith", 0.8));
  EXPECT_FALSE(IsSimilar("john", "mary", 0.8));
  // The length pre-filter must not reject borderline matches.
  EXPECT_TRUE(IsSimilar("abcdefghij", "abcdefgh", 0.8));
  // But must reject impossible length gaps quickly (still correct).
  EXPECT_FALSE(IsSimilar("ab", "abcdefghijklmnop", 0.8));
}

TEST(IsSimilar, PreFilterAgreesWithFullComputation) {
  Random rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    std::string a = rng.NextString(static_cast<int>(rng.NextBounded(15)));
    std::string b = rng.NextString(static_cast<int>(rng.NextBounded(15)));
    for (double threshold : {0.5, 0.8, 0.95}) {
      EXPECT_EQ(IsSimilar(a, b, threshold),
                LevenshteinSimilarity(a, b) >= threshold)
          << a << " " << b << " @" << threshold;
    }
  }
}

/// Plain full-matrix DP: the reference every LevenshteinDistance path must
/// reproduce exactly.
size_t OracleDistance(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

/// IsSimilar's contract on the oracle distance: the length pre-filter,
/// then 1 - d / longest >= threshold.
bool OracleIsSimilar(const std::string& a, const std::string& b,
                     double threshold) {
  const size_t longest = std::max(a.size(), b.size());
  const size_t shortest = std::min(a.size(), b.size());
  if (longest == 0) return 1.0 >= threshold;
  if (1.0 - static_cast<double>(longest - shortest) /
                static_cast<double>(longest) <
      threshold) {
    return false;
  }
  return 1.0 - static_cast<double>(OracleDistance(a, b)) /
                   static_cast<double>(longest) >=
         threshold;
}

/// Random bytes from a small alphabet (so strings share characters) that
/// includes NUL and non-ASCII bytes.
std::string RandomBytes(Random& rng, size_t len) {
  static const unsigned char kAlphabet[] = {'a', 'b', 'c', 'd', 0x00,
                                            0x7F, 0x80, 0xC3, 0xE9, 0xFF};
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(static_cast<char>(kAlphabet[rng.NextBounded(10)]));
  }
  return out;
}

/// A copy of `s` with `edits` random substitutions, insertions and
/// deletions, so related pairs land near the similarity thresholds.
std::string Mutate(Random& rng, std::string s, size_t edits) {
  for (size_t e = 0; e < edits; ++e) {
    const size_t pos = s.empty() ? 0 : rng.NextBounded(s.size());
    switch (rng.NextBounded(3)) {
      case 0:
        if (!s.empty()) s[pos] = RandomBytes(rng, 1)[0];
        break;
      case 1:
        s.insert(pos, RandomBytes(rng, 1));
        break;
      default:
        if (!s.empty()) s.erase(pos, 1);
        break;
    }
  }
  return s;
}

TEST(Levenshtein, MatchesDpOracleAcrossWordBoundaries) {
  Random rng(2024);
  const size_t kLengths[] = {0, 1, 2, 11, 63, 64, 65, 200};
  size_t checked = 0;
  for (size_t la : kLengths) {
    for (size_t lb : kLengths) {
      for (int trial = 0; trial < 6; ++trial) {
        const std::string a = RandomBytes(rng, la);
        // Half the pairs are unrelated, half are near-copies.
        const std::string b = trial % 2 == 0
                                  ? RandomBytes(rng, lb)
                                  : Mutate(rng, a, rng.NextBounded(6));
        const size_t want = OracleDistance(a, b);
        ASSERT_EQ(LevenshteinDistance(a, b), want)
            << "|a|=" << a.size() << " |b|=" << b.size();
        ASSERT_EQ(LevenshteinDistance(b, a), want);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 8u * 8u * 6u);
}

TEST(Levenshtein, MatchesDpOracleOnRandomLengths) {
  Random rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string a = RandomBytes(rng, rng.NextBounded(80));
    const std::string b = rng.NextBool(0.5)
                              ? Mutate(rng, a, rng.NextBounded(10))
                              : RandomBytes(rng, rng.NextBounded(80));
    ASSERT_EQ(LevenshteinDistance(a, b), OracleDistance(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
  }
}

TEST(IsSimilar, MatchesOracleAtBoundaryThresholds) {
  Random rng(5);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t len = rng.NextBool(0.2) ? 60 + rng.NextBounded(10)
                                         : rng.NextBounded(14);
    const std::string a = RandomBytes(rng, len);
    const std::string b = Mutate(rng, a, rng.NextBounded(4));
    const size_t longest = std::max(a.size(), b.size());
    // The exact similarity of the pair and its floating-point neighbours,
    // plus the usual fixed thresholds.
    std::vector<double> thresholds = {0.0, 0.5, 0.8, 0.9, 1.0};
    if (longest > 0) {
      const double exact = 1.0 - static_cast<double>(OracleDistance(a, b)) /
                                     static_cast<double>(longest);
      thresholds.push_back(exact);
      thresholds.push_back(std::nextafter(exact, 2.0));
      thresholds.push_back(std::nextafter(exact, -1.0));
    }
    for (double threshold : thresholds) {
      ASSERT_EQ(IsSimilar(a, b, threshold), OracleIsSimilar(a, b, threshold))
          << "|a|=" << a.size() << " |b|=" << b.size() << " @" << threshold;
    }
  }
}

}  // namespace
}  // namespace bigdansing

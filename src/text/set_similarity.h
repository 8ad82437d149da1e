#ifndef TRANSER_TEXT_SET_SIMILARITY_H_
#define TRANSER_TEXT_SET_SIMILARITY_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Jaccard similarity |A∩B| / |A∪B| over the given token multisets
/// (deduplicated internally). Two empty sets are similarity 1.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Dice similarity 2|A∩B| / (|A|+|B|) over deduplicated tokens.
double DiceSimilarity(const std::vector<std::string>& a,
                      const std::vector<std::string>& b);

/// Overlap coefficient |A∩B| / min(|A|,|B|) over deduplicated tokens.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);

/// Jaccard over whitespace word tokens — the paper's comparator for
/// general textual strings (titles, venues, albums).
double WordJaccardSimilarity(std::string_view a, std::string_view b);

/// WordJaccardSimilarity() over already sorted unique word sets (the
/// prepared form; see SortUniqueWords).
double WordSetJaccard(std::span<const std::string_view> a,
                      std::span<const std::string_view> b);

/// Jaccard over padded character q-grams (default bigrams), robust to
/// typographical errors in short strings.
double QGramJaccardSimilarity(std::string_view a, std::string_view b,
                              size_t q = 2);

/// Dice over padded character q-grams.
double QGramDiceSimilarity(std::string_view a, std::string_view b,
                           size_t q = 2);

/// max(ME(a,b), ME(b,a)) over the word tokens of `a` and `b`, where the
/// Monge-Elkan score ME(a,b) is the mean over tokens of `a` of the best
/// Jaro-Winkler match in `b` — symmetric hybrid token/char similarity
/// used for multi-word names such as author lists.
double SymmetricMongeElkan(std::string_view a, std::string_view b);

/// SymmetricMongeElkan() over already split word tokens, in text order.
/// Scores each token pair once: the |a| x |b| Jaro-Winkler matrix's row
/// maxima give ME(a,b) and its column maxima ME(b,a).
double SymmetricMongeElkan(std::span<const std::string_view> a,
                           std::span<const std::string_view> b);

}  // namespace transer

#endif  // TRANSER_TEXT_SET_SIMILARITY_H_

#ifndef TRANSER_TEXT_SIMILARITY_REGISTRY_H_
#define TRANSER_TEXT_SIMILARITY_REGISTRY_H_

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace transer {

/// A similarity function over two attribute values, returning [0, 1].
using SimilarityFn = std::function<double(std::string_view, std::string_view)>;

/// \brief One attribute value prepared for comparison: its normalised
/// text, the text's word tokens in order, and their sorted unique set.
/// Views into storage its owner keeps alive (PairComparator's arena).
struct PreparedValue {
  std::string_view text;
  std::span<const std::string_view> words;     ///< text order, repeats kept
  std::span<const std::string_view> word_set;  ///< sorted, unique
};

/// A similarity function over two prepared values. It reads whichever
/// form it needs and returns what its SimilarityFn returns on the texts.
using PreparedSimilarityFn =
    std::function<double(const PreparedValue&, const PreparedValue&)>;

/// \brief Named similarity functions, so schemas can declare per-attribute
/// comparators by name ("jaro_winkler", "word_jaccard", ...). Homogeneous
/// transfer requires the *same* comparators in both domains; naming them
/// makes that contract explicit and checkable.
class SimilarityRegistry {
 public:
  /// Returns the process-wide registry, pre-populated with the built-ins:
  /// jaro, jaro_winkler, levenshtein, damerau_levenshtein, word_jaccard,
  /// qgram_jaccard, qgram_dice, lcs, monge_elkan, exact, soundex,
  /// year (max_diff 10), numeric_abs (max_diff 100).
  static SimilarityRegistry& Global();

  /// Registers (or replaces) a similarity function under `name`. Its
  /// prepared form calls `fn` on the prepared values' texts.
  void Register(const std::string& name, SimilarityFn fn);

  /// Looks up a similarity function. NotFound when unregistered.
  Result<SimilarityFn> Lookup(const std::string& name) const;

  /// Looks up the prepared form of a similarity function (what
  /// PairComparator evaluates). word_jaccard reads the sorted word sets,
  /// monge_elkan the ordered words, every other function the texts.
  /// NotFound when unregistered.
  Result<PreparedSimilarityFn> LookupPrepared(const std::string& name) const;

  /// True if a function is registered under `name`.
  bool Contains(const std::string& name) const;

  /// Sorted list of registered names.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::string name;
    SimilarityFn fn;
    PreparedSimilarityFn prepared;
  };

  SimilarityRegistry();
  void Register(const std::string& name, SimilarityFn fn,
                PreparedSimilarityFn prepared);
  const Entry* Find(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace transer

#endif  // TRANSER_TEXT_SIMILARITY_REGISTRY_H_

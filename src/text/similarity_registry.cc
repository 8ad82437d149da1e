#include "text/similarity_registry.h"

#include <algorithm>

#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/numeric_similarity.h"
#include "text/phonetic.h"
#include "text/set_similarity.h"

namespace transer {

SimilarityRegistry::SimilarityRegistry() {
  Register("jaro", [](std::string_view a, std::string_view b) {
    return JaroSimilarity(a, b);
  });
  Register("jaro_winkler", [](std::string_view a, std::string_view b) {
    return JaroWinklerSimilarity(a, b);
  });
  Register("levenshtein", [](std::string_view a, std::string_view b) {
    return LevenshteinSimilarity(a, b);
  });
  Register("damerau_levenshtein", [](std::string_view a, std::string_view b) {
    const size_t longest = std::max(a.size(), b.size());
    if (longest == 0) return 1.0;
    return 1.0 - static_cast<double>(DamerauLevenshteinDistance(a, b)) /
                     static_cast<double>(longest);
  });
  Register(
      "word_jaccard",
      [](std::string_view a, std::string_view b) {
        return WordJaccardSimilarity(a, b);
      },
      [](const PreparedValue& a, const PreparedValue& b) {
        return WordSetJaccard(a.word_set, b.word_set);
      });
  Register("qgram_jaccard", [](std::string_view a, std::string_view b) {
    return QGramJaccardSimilarity(a, b);
  });
  Register("qgram_dice", [](std::string_view a, std::string_view b) {
    return QGramDiceSimilarity(a, b);
  });
  Register("lcs", [](std::string_view a, std::string_view b) {
    return LongestCommonSubstringSimilarity(a, b);
  });
  Register(
      "monge_elkan",
      [](std::string_view a, std::string_view b) {
        return SymmetricMongeElkan(a, b);
      },
      [](const PreparedValue& a, const PreparedValue& b) {
        return SymmetricMongeElkan(a.words, b.words);
      });
  Register("exact", [](std::string_view a, std::string_view b) {
    return ExactSimilarity(a, b);
  });
  Register("soundex", [](std::string_view a, std::string_view b) {
    return SoundexSimilarity(a, b);
  });
  Register("year", [](std::string_view a, std::string_view b) {
    return NumericStringSimilarity(a, b, /*max_diff=*/10.0);
  });
  Register("numeric_abs", [](std::string_view a, std::string_view b) {
    return NumericStringSimilarity(a, b, /*max_diff=*/100.0);
  });
}

SimilarityRegistry& SimilarityRegistry::Global() {
  static SimilarityRegistry* registry = new SimilarityRegistry();
  return *registry;
}

void SimilarityRegistry::Register(const std::string& name, SimilarityFn fn) {
  PreparedSimilarityFn prepared = [fn](const PreparedValue& a,
                                       const PreparedValue& b) {
    return fn(a.text, b.text);
  };
  Register(name, std::move(fn), std::move(prepared));
}

void SimilarityRegistry::Register(const std::string& name, SimilarityFn fn,
                                  PreparedSimilarityFn prepared) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.fn = std::move(fn);
      entry.prepared = std::move(prepared);
      return;
    }
  }
  entries_.push_back(Entry{name, std::move(fn), std::move(prepared)});
}

const SimilarityRegistry::Entry* SimilarityRegistry::Find(
    const std::string& name) const {
  for (const auto& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Result<SimilarityFn> SimilarityRegistry::Lookup(const std::string& name) const {
  if (const Entry* entry = Find(name)) return entry->fn;
  return Status::NotFound("no similarity function named '" + name + "'");
}

Result<PreparedSimilarityFn> SimilarityRegistry::LookupPrepared(
    const std::string& name) const {
  if (const Entry* entry = Find(name)) return entry->prepared;
  return Status::NotFound("no similarity function named '" + name + "'");
}

bool SimilarityRegistry::Contains(const std::string& name) const {
  return Find(name) != nullptr;
}

std::vector<std::string> SimilarityRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) names.push_back(entry.name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace transer

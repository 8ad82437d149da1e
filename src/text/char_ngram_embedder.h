#ifndef TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_
#define TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// \brief Options for the hashed character-n-gram embedder.
struct CharNgramEmbedderOptions {
  size_t dimension = 32;   ///< dense embedding width
  size_t min_n = 2;        ///< smallest character n-gram
  size_t max_n = 4;        ///< largest character n-gram
  uint64_t seed = 0x5eedULL;
};

/// \brief Deterministic distributed text representation of record values;
/// the streaming resolver embeds every ingested record with it.
///
/// Each character n-gram hashes to a fixed pseudo-random unit vector; a
/// string embeds as the L2-normalised sum of its n-gram vectors, so similar
/// spellings share mass (the subword property of FastText [Bojanowski et
/// al. 2017]). Out-of-vocabulary text embeds as noisily as in FastText,
/// which is exactly the failure mode the paper attributes to DR on
/// structured personal data.
class CharNgramEmbedder {
 public:
  explicit CharNgramEmbedder(CharNgramEmbedderOptions options = {});

  /// Embeds one string (L2-normalised; empty string -> zero vector).
  std::vector<double> Embed(std::string_view text) const;

  /// Embeds a record as the concatenation of per-attribute embeddings.
  std::vector<double> EmbedFields(const std::vector<std::string>& fields) const;

  size_t dimension() const { return options_.dimension; }

 private:
  /// Accumulates the hashed vector of one n-gram into `acc`.
  void AddNgram(std::string_view gram, std::span<double> acc) const;

  /// Zero-fills `out` and embeds `text` into it (the allocation-free
  /// core of Embed / EmbedFields).
  void EmbedInto(std::string_view text, std::span<double> out) const;

  CharNgramEmbedderOptions options_;
};

}  // namespace transer

#endif  // TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_

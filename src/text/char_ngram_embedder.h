#ifndef TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_
#define TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace transer {

/// Hard ceiling on the hashed sparse feature space (per field): ~2^20
/// buckets keeps u32 pair-space columns and per-column scaler state
/// comfortably bounded.
inline constexpr size_t kMaxSparseEmbedderDimension = size_t{1} << 20;

/// \brief Options for the hashed character-n-gram embedder.
struct CharNgramEmbedderOptions {
  size_t dimension = 32;   ///< dense embedding width
  size_t min_n = 2;        ///< smallest character n-gram
  size_t max_n = 4;        ///< largest character n-gram
  uint64_t seed = 0x5eedULL;
  /// Bucket count of the *sparse* mode: each n-gram hashes straight to
  /// one of these columns (signed feature hashing) instead of being
  /// projected onto `dimension` dense lanes. Capped at
  /// kMaxSparseEmbedderDimension.
  size_t sparse_dimension = size_t{1} << 18;
};

/// \brief Deterministic distributed text representation: the stand-in for
/// the FastText embeddings used by the DR and DTAL* baselines.
///
/// Each character n-gram hashes to a fixed pseudo-random unit vector; a
/// string embeds as the L2-normalised sum of its n-gram vectors, so similar
/// spellings share mass (the subword property of FastText [Bojanowski et
/// al. 2017]). Out-of-vocabulary text embeds as noisily as in FastText,
/// which is exactly the failure mode the paper attributes to DR on
/// structured personal data.
///
/// The *sparse* mode keeps the raw hashed n-gram dimensions instead of
/// projecting them: each gram contributes ±1 (a deterministic sign off
/// the same hash) to bucket hash % sparse_dimension, and the row comes
/// back as a sorted CSR fragment — no dense materialisation at any
/// point, which is what lets the feature space grow to ~2^20 columns.
class CharNgramEmbedder {
 public:
  explicit CharNgramEmbedder(CharNgramEmbedderOptions options = {});

  /// Embeds one string (L2-normalised; empty string -> zero vector).
  std::vector<double> Embed(std::string_view text) const;

  /// Embeds a record as the concatenation of per-attribute embeddings.
  std::vector<double> EmbedFields(const std::vector<std::string>& fields) const;

  /// Pair representation used by the embedding-based baselines:
  /// element-wise |e(a) - e(b)| concatenated with e(a) * e(b), per field.
  std::vector<double> EmbedPair(const std::vector<std::string>& a,
                                const std::vector<std::string>& b) const;

  /// EmbedPair into a caller-owned buffer (resized to PairDimension).
  /// The batch path: all per-field scratch lives in thread-local
  /// buffers, so embedding N pairs performs no per-pair allocation
  /// beyond the output itself. Bit-identical to EmbedPair.
  void EmbedPairInto(const std::vector<std::string>& a,
                     const std::vector<std::string>& b,
                     std::vector<double>* out) const;

  size_t dimension() const { return options_.dimension; }
  size_t sparse_dimension() const { return options_.sparse_dimension; }

  /// Width of the EmbedPair output for records with `num_fields` fields.
  size_t PairDimension(size_t num_fields) const {
    return 2 * options_.dimension * num_fields;
  }

  /// Width of the EmbedPairSparse space: per field, one
  /// sparse_dimension-wide |diff| block and one product block.
  size_t SparsePairDimension(size_t num_fields) const {
    return 2 * options_.sparse_dimension * num_fields;
  }

  /// Sparse embedding of one string: sorted unique bucket indices with
  /// the L2-normalised signed gram counts. Appends nothing for the
  /// empty string. Output vectors are cleared first; scratch is
  /// thread-local, so batch loops do not allocate per record.
  void EmbedSparse(std::string_view text, std::vector<uint32_t>* indices,
                   std::vector<double>* values) const;

  /// Sparse pair representation over the hashed space, mirroring
  /// EmbedPair: for field f with sparse embeddings ea / eb, bucket j
  /// emits |ea[j] - eb[j]| at column f*2*S + j (union of supports) and
  /// ea[j]*eb[j] at column f*2*S + S + j (intersection), S =
  /// sparse_dimension. Exact zeros are dropped; the result is a valid
  /// strictly-increasing CSR row over SparsePairDimension(fields).
  void EmbedPairSparse(const std::vector<std::string>& a,
                       const std::vector<std::string>& b,
                       std::vector<uint32_t>* indices,
                       std::vector<double>* values) const;

 private:
  /// Accumulates the hashed vector of one n-gram into `acc`.
  void AddNgram(std::string_view gram, std::span<double> acc) const;

  /// Zero-fills `out` and embeds `text` into it (the allocation-free
  /// core of Embed / EmbedFields / EmbedPairInto).
  void EmbedInto(std::string_view text, std::span<double> out) const;

  CharNgramEmbedderOptions options_;
};

}  // namespace transer

#endif  // TRANSER_TEXT_CHAR_NGRAM_EMBEDDER_H_

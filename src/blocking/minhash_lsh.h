#ifndef TRANSER_BLOCKING_MINHASH_LSH_H_
#define TRANSER_BLOCKING_MINHASH_LSH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"
#include "util/execution_context.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief Options for MinHash-LSH blocking.
struct MinHashLshOptions {
  size_t num_bands = 8;        ///< LSH bands
  size_t rows_per_band = 4;    ///< minhash rows per band
  size_t shingle_q = 3;        ///< character shingle length
  /// Attribute indices to shingle; empty = all attributes.
  std::vector<size_t> attributes;
  uint64_t seed = 42;
  /// Buckets larger than this (per side) are skipped.
  size_t max_bucket_size = 500;
};

/// \brief The paper's blocking step (Section 5.1.1): records are shingled
/// into character q-gram sets, min-hashed, and banded so records with
/// similar attribute values collide in at least one band bucket with high
/// probability (LSH for Jaccard similarity).
class MinHashLshBlocker {
 public:
  explicit MinHashLshBlocker(MinHashLshOptions options = {});

  /// Returns deduplicated candidate pairs between `left` and `right`.
  /// Signs every record, and groups each band's bucket keys, on the
  /// parallel runtime; the pair list is then emitted serially in band
  /// order, so it is identical at any thread count. Workers poll the
  /// deadline / cancellation per chunk of records (and per band); the
  /// signature and band-key storage is reserved against the memory
  /// budget.
  Result<std::vector<PairRef>> Block(const Dataset& left,
                                     const Dataset& right,
                                     const ExecutionContext& context,
                                     RunDiagnostics* diagnostics = nullptr,
                                     const ParallelOptions& options = {})
      const;

  /// The minhash signature of one record (num_bands*rows_per_band values);
  /// exposed for tests of the LSH property.
  std::vector<uint64_t> Signature(const Record& record) const;

 private:
  /// Writes the signature of `record` to `signature` (hash_seeds_.size()
  /// values); `scratch` holds each normalised value in turn.
  void SignInto(const Record& record, std::string* scratch,
                uint64_t* signature) const;

  MinHashLshOptions options_;
  std::vector<uint64_t> hash_seeds_;  ///< one per minhash row
};

}  // namespace transer

#endif  // TRANSER_BLOCKING_MINHASH_LSH_H_

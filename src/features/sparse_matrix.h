#ifndef TRANSER_FEATURES_SPARSE_MATRIX_H_
#define TRANSER_FEATURES_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/feature_matrix.h"
#include "util/diagnostics.h"
#include "util/status.h"
#include "util/validation.h"

namespace transer {

/// \brief CSR instance store for the high-dimensional hashed feature
/// path: row offsets + column indices + values, plus the same label /
/// pair-ref sidecars as FeatureMatrix.
///
/// The row contract — enforced by Validate, assumed by every sparse
/// kernel — is *strictly increasing* column indices below
/// num_features() and finite values. Column indices are u32 (the hashed
/// n-gram space is capped at ~2^20, far below the u32 ceiling) and the
/// feature-name list may be empty: a hashed space identifies itself
/// through a compact schema descriptor (see
/// CharNgramEmbedder::SparseSchemaNames) instead of 2^20 column names.
class SparseFeatureMatrix {
 public:
  SparseFeatureMatrix() = default;
  explicit SparseFeatureMatrix(size_t num_features,
                               std::vector<std::string> feature_names = {});

  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  size_t num_features() const { return num_features_; }
  /// Stored nonzeros across all rows.
  size_t nnz() const { return values_.size(); }
  /// Column names when the space is small enough to enumerate (e.g. a
  /// CSR view of a dense matrix); empty for hashed spaces.
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// One row of the matrix (non-owning views into the CSR arrays).
  struct RowView {
    std::span<const uint32_t> indices;
    std::span<const double> values;
  };
  RowView Row(size_t i) const {
    const size_t begin = row_offsets_[i];
    const size_t end = row_offsets_[i + 1];
    return RowView{
        std::span<const uint32_t>(indices_.data() + begin, end - begin),
        std::span<const double>(values_.data() + begin, end - begin)};
  }

  int label(size_t i) const { return labels_[i]; }
  const std::vector<int>& labels() const { return labels_; }
  void set_label(size_t i, int label) { labels_[i] = label; }
  const PairRef& pair(size_t i) const { return pairs_[i]; }

  /// Appends one instance. `indices` and `values` must agree in length;
  /// the CSR row contract (sorted, in-range, finite) is *not* verified
  /// here — Validate is the gate for untrusted input.
  void AppendRow(std::span<const uint32_t> indices,
                 std::span<const double> values, int label, PairRef ref = {});

  void Reserve(size_t rows, size_t nnz);

  /// Subset by row indices (features, labels and pair refs).
  SparseFeatureMatrix Select(const std::vector<size_t>& rows) const;

  /// Actual CSR footprint in bytes (offsets + indices + values +
  /// sidecars) — what the sparse path holds in memory.
  size_t MemoryBytes() const;
  /// What the same instances would occupy as a dense row-major matrix.
  static size_t DenseEquivalentBytes(size_t rows, size_t cols) {
    return rows * cols * sizeof(double);
  }

  /// CSR view of a dense matrix with exact zeros dropped — the bridge
  /// the sparse↔dense equivalence tests and the --sparse transfer path
  /// are built on. Keeps names, labels and pair refs.
  static SparseFeatureMatrix FromDense(const FeatureMatrix& dense);

  /// Densifies (zero-filled gaps). Intended for tests and small spaces;
  /// synthesises "f<i>" column names when the space is unnamed.
  FeatureMatrix ToDense() const;

  /// Scans every row against the CSR contract: finite values (and,
  /// optionally, the [0, 1] range), strictly increasing in-range column
  /// indices, and in-domain labels. kStrict rejects the matrix on the
  /// first violation class; kDropRows drops offending rows; kClampValues
  /// repairs value-level faults in place (NaN -> 0, clamp into range)
  /// but still drops structurally broken rows — an out-of-range or
  /// unsorted index has no meaningful repair, and letting it through
  /// would be UB in the kernels. `report` and `diagnostics` receive the
  /// findings (kSparseRowsDropped / kValuesRepaired events).
  Result<SparseFeatureMatrix> Validate(
      const ValidationOptions& options, ValidationReport* report = nullptr,
      RunDiagnostics* diagnostics = nullptr) const;

 private:
  size_t num_features_ = 0;
  std::vector<std::string> feature_names_;
  std::vector<size_t> row_offsets_ = {0};
  std::vector<uint32_t> indices_;
  std::vector<double> values_;
  std::vector<int> labels_;
  std::vector<PairRef> pairs_;
};

}  // namespace transer

#endif  // TRANSER_FEATURES_SPARSE_MATRIX_H_

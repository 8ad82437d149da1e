#ifndef TRANSER_FEATURES_COMPARATOR_H_
#define TRANSER_FEATURES_COMPARATOR_H_

#include <span>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"
#include "text/normalize.h"
#include "text/similarity_registry.h"
#include "util/parallel.h"
#include "util/status.h"

namespace transer {

/// \brief Options for the record-pair comparison step.
struct ComparatorOptions {
  /// Value normalisation applied before each similarity call.
  NormalizeOptions normalize;
  /// Similarity assigned when either value is missing (ER convention:
  /// missing tells us nothing, so score 0).
  double missing_value_similarity = 0.0;
};

/// \brief Records prepared for comparison by one PairComparator, held in
/// one arena: for each record and attribute, the normalised value, its
/// word tokens and its sorted unique word set. Move-only (through its
/// reservation): the prepared values view the arena's own buffers, which
/// a move hands over intact and a copy would not.
class PreparedRecords {
 public:
  /// The prepared attribute values of the `slot`-th prepared record.
  std::span<const PreparedValue> operator[](size_t slot) const {
    return std::span<const PreparedValue>(values_).subspan(slot * width_,
                                                           width_);
  }

 private:
  friend class PairComparator;

  size_t width_ = 0;
  std::vector<char> text_;               ///< normalised values
  std::vector<std::string_view> words_;  ///< per value: words, word set
  std::vector<PreparedValue> values_;    ///< record-major
  ScopedReservation memory_;             ///< the arena's bytes
};

/// \brief The record-pair comparison step (Figure 1): evaluates the
/// schema's per-attribute similarity functions on candidate pairs and
/// emits the feature matrix. Labels come from ground-truth entity ids.
///
/// Every path compares prepared records: each record is normalised and
/// tokenised once, then every pair it takes part in reads that form.
class PairComparator {
 public:
  /// Fails with NotFound if the schema references an unregistered
  /// similarity function, or InvalidArgument for incompatible schemas.
  static Result<PairComparator> Create(const Schema& left_schema,
                                       const Schema& right_schema,
                                       ComparatorOptions options = {});

  /// Prepares one record for comparison (serially, with no budget).
  PreparedRecords Prepare(const Record& record) const;

  /// Feature vector of one record pair: prepares both, then CompareInto.
  std::vector<double> Compare(const Record& left, const Record& right) const;

  /// The feature vector of two prepared records (num_features() values
  /// each) into a caller-owned buffer of num_features() doubles — the
  /// allocation-free kernel of every comparison path.
  void CompareInto(std::span<const PreparedValue> left,
                   std::span<const PreparedValue> right,
                   std::span<double> out) const;

  /// Compares every candidate pair, labelling each by entity-id equality,
  /// over the parallel runtime. Each record some pair references is
  /// prepared once, in parallel, into one arena per dataset that is
  /// reserved against `context`'s memory budget; pairs are then filled
  /// into pre-sized rows in chunks, so the matrix is bit-identical for
  /// any thread count. Workers poll `context`; a TE / ME / cancellation
  /// surfaces as the usual FailedPrecondition.
  Result<FeatureMatrix> CompareAll(const Dataset& left, const Dataset& right,
                                   const std::vector<PairRef>& pairs,
                                   const ExecutionContext& context,
                                   const ParallelOptions& options) const;

  /// The feature schema this comparator emits ("attr:similarity" per
  /// attribute) — the names a model trained on its output is bound to.
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  size_t num_features() const { return similarity_fns_.size(); }

 private:
  PairComparator(std::vector<std::string> names,
                 std::vector<PreparedSimilarityFn> fns,
                 ComparatorOptions options)
      : feature_names_(std::move(names)),
        similarity_fns_(std::move(fns)),
        options_(options) {}

  /// Prepares `records` into one arena (slot s holds *records[s]) on the
  /// parallel runtime. The arena is allocated on the calling thread and
  /// reserved against `context`'s memory budget for its lifetime.
  Result<PreparedRecords> PrepareAll(std::span<const Record* const> records,
                                     const ExecutionContext& context,
                                     const ParallelOptions& options) const;

  std::vector<std::string> feature_names_;
  std::vector<PreparedSimilarityFn> similarity_fns_;
  ComparatorOptions options_;
};

}  // namespace transer

#endif  // TRANSER_FEATURES_COMPARATOR_H_

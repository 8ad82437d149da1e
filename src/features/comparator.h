#ifndef TRANSER_FEATURES_COMPARATOR_H_
#define TRANSER_FEATURES_COMPARATOR_H_

#include <span>
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

/// \brief The record-pair comparison step (Figure 1): evaluates the
/// schema's per-attribute similarity functions on candidate pairs and
/// emits the feature matrix. Labels come from ground-truth entity ids.
class PairComparator {
 public:
  /// Fails with NotFound if the schema references an unregistered
  /// similarity function, or InvalidArgument for incompatible schemas.
  static Result<PairComparator> Create(const Schema& left_schema,
                                       const Schema& right_schema,
                                       ComparatorOptions options = {});

  /// Feature vector of one record pair (values normalised first).
  std::vector<double> Compare(const Record& left, const Record& right) const;

  /// Compare() into a caller-owned buffer of num_features() doubles —
  /// the allocation-free kernel of the parallel CompareAll fill.
  void CompareInto(const Record& left, const Record& right,
                   std::span<double> out) const;

  /// Compares every candidate pair, labelling each by entity-id equality,
  /// over the parallel runtime: pairs are filled into pre-sized rows in
  /// chunks, so the matrix is bit-identical for any thread count.
  /// Workers poll `context`; a TE / ME / cancellation surfaces as the
  /// usual FailedPrecondition.
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
                 std::vector<SimilarityFn> fns, ComparatorOptions options)
      : feature_names_(std::move(names)),
        similarity_fns_(std::move(fns)),
        options_(options) {}

  std::vector<std::string> feature_names_;
  std::vector<SimilarityFn> similarity_fns_;
  ComparatorOptions options_;
};

}  // namespace transer

#endif  // TRANSER_FEATURES_COMPARATOR_H_

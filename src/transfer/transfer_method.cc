#include "transfer/transfer_method.h"

#include "features/sparse_matrix.h"
#include "ml/feature_view.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "util/logging.h"

namespace transer {

KnnBackendOptions ResolveKnnBackendOptions(
    const TransferRunOptions& run_options, int num_threads) {
  KnnBackendOptions knn;
  knn.kind = run_options.knn_backend;
  knn.ann.recall_target = run_options.knn_recall_target;
  knn.ann.ef_search = run_options.knn_ef_search;
  // A fixed salt keeps the graph's level stream independent of the
  // other per-seed streams (chunk RNGs, samplers) of the same run.
  knn.ann.seed = run_options.seed ^ 0x616e6e5f67726170ULL;
  knn.num_threads = num_threads;
  return knn;
}

void FitClassifierWithRunOptions(Classifier* classifier,
                                 const FeatureMatrix& x,
                                 const std::vector<int>& y,
                                 const std::vector<double>& weights,
                                 const TransferRunOptions& run_options) {
  if (run_options.sparse_features) {
    // Only the linear families own a sparse fit path; dispatch through
    // the concrete types so other classifiers keep their dense Fit.
    if (auto* svm = dynamic_cast<LinearSvm*>(classifier)) {
      const SparseFeatureMatrix sparse = SparseFeatureMatrix::FromDense(x);
      svm->FitView(FeatureView(sparse), y, weights);
      return;
    }
    if (auto* lr = dynamic_cast<LogisticRegression*>(classifier)) {
      const SparseFeatureMatrix sparse = SparseFeatureMatrix::FromDense(x);
      lr->FitView(FeatureView(sparse), y, weights);
      return;
    }
    if (run_options.diagnostics != nullptr) {
      run_options.diagnostics->Add(
          DegradationKind::kSparseFitUnsupported, "fit",
          classifier->name() + " has no sparse fit path; training dense");
    }
  }
  classifier->Fit(x.ToMatrix(), y, weights);
}

namespace transfer_internal {

size_t DomainWorkingSetBytes(const FeatureMatrix& source,
                             const FeatureMatrix& target) {
  return (source.size() + target.size()) * source.num_features() *
         sizeof(double);
}

std::vector<int> RequireLabels(const FeatureMatrix& x) {
  std::vector<int> labels(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const int label = x.label(i);
    TRANSER_CHECK_NE(label, kUnlabeled)
        << "instance " << i << " has no label";
    labels[i] = label;
  }
  return labels;
}

}  // namespace transfer_internal
}  // namespace transer

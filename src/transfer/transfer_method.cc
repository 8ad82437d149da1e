#include "transfer/transfer_method.h"

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

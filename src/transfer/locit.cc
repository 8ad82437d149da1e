#include "transfer/locit.h"

#include <cmath>

#include "knn/kd_tree.h"
#include "linalg/covariance.h"
#include "linalg/vector_ops.h"
#include "ml/linear_svm.h"
#include "util/random.h"

namespace transer {

namespace {

/// Local distribution summary of one instance's neighbourhood.
struct LocalStats {
  std::vector<double> mean;
  Matrix covariance;
};

LocalStats NeighbourhoodStats(const Matrix& points,
                              const std::vector<Neighbour>& neighbours) {
  std::vector<size_t> rows;
  rows.reserve(neighbours.size());
  for (const auto& nb : neighbours) rows.push_back(nb.index);
  const Matrix local = points.SelectRows(rows);
  LocalStats stats;
  stats.mean = ColumnMeans(local);
  stats.covariance = SampleCovariance(local);
  return stats;
}

std::vector<double> PairFeatures(const LocalStats& a, const LocalStats& b) {
  return {L2Distance(a.mean, b.mean),
          a.covariance.Subtract(b.covariance).FrobeniusNorm()};
}

}  // namespace

Result<std::vector<size_t>> LocItTransfer::SelectInstances(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const TransferRunOptions& run_options) const {
  const ExecutionContext& context = *run_options.context;
  RunDiagnostics* diagnostics = run_options.diagnostics;
  TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));
  const Matrix x_source = source.ToMatrix();
  const Matrix x_target = target.ToMatrix();
  const size_t k = std::min(options_.k, target.size() > 1
                                            ? target.size() - 1
                                            : size_t{1});

  TRANSER_ASSIGN_OR_RETURN(
      const KdTree target_tree,
      KdTree::Create(x_target, context, "locit", diagnostics));
  TRANSER_ASSIGN_OR_RETURN(
      const KdTree source_tree,
      KdTree::Create(x_source, context, "locit", diagnostics));

  // Local stats for every target instance.
  std::vector<LocalStats> target_stats(x_target.rows());
  for (size_t i = 0; i < x_target.rows(); ++i) {
    TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));
    const auto neighbours = target_tree.Query(
        std::span<const double>(x_target.Row(i), x_target.cols()), k,
        static_cast<ptrdiff_t>(i));
    target_stats[i] = NeighbourhoodStats(x_target, neighbours);
  }

  // Supervised transferability training set from the target domain:
  // (x, nearest neighbour) -> positive, (x, random far point) -> negative.
  Rng rng(run_options.seed + 29);
  std::vector<double> train_rows;
  std::vector<int> train_labels;
  for (size_t i = 0; i < x_target.rows(); ++i) {
    TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));
    const auto neighbours = target_tree.Query(
        std::span<const double>(x_target.Row(i), x_target.cols()), 1,
        static_cast<ptrdiff_t>(i));
    if (neighbours.empty()) continue;
    const size_t near_index = neighbours[0].index;
    const auto positive = PairFeatures(target_stats[i],
                                       target_stats[near_index]);
    train_rows.insert(train_rows.end(), positive.begin(), positive.end());
    train_labels.push_back(1);

    // A uniformly random other point is far with high probability under
    // LocIT's anomaly-detection assumptions.
    size_t far_index = static_cast<size_t>(
        rng.NextUint64Below(x_target.rows()));
    if (far_index == i) far_index = (far_index + 1) % x_target.rows();
    const auto negative =
        PairFeatures(target_stats[i], target_stats[far_index]);
    train_rows.insert(train_rows.end(), negative.begin(), negative.end());
    train_labels.push_back(0);
  }
  if (train_labels.empty()) {
    return Status::FailedPrecondition("locit: no training pairs");
  }

  LinearSvmOptions svm_options;
  svm_options.seed = run_options.seed + 31;
  LinearSvm svm(svm_options);
  svm.set_execution_context(&context);
  svm.Fit(Matrix::FromRowMajor(train_labels.size(), 2, train_rows),
          train_labels);
  TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));

  // Apply the transferability classifier to each source instance.
  std::vector<size_t> selected;
  const size_t source_k = std::min(options_.k, source.size() > 1
                                                   ? source.size() - 1
                                                   : size_t{1});
  for (size_t s = 0; s < x_source.rows(); ++s) {
    TRANSER_RETURN_IF_ERROR(context.Check("locit", diagnostics));
    context.ReportProgress(static_cast<double>(s) /
                           static_cast<double>(x_source.rows()));
    const std::span<const double> row(x_source.Row(s), x_source.cols());
    const auto source_neighbours =
        source_tree.Query(row, source_k, static_cast<ptrdiff_t>(s));
    const auto target_neighbours = target_tree.Query(row, k);
    if (source_neighbours.empty() || target_neighbours.empty()) continue;
    const LocalStats stats_s = NeighbourhoodStats(x_source, source_neighbours);
    const LocalStats stats_t = NeighbourhoodStats(x_target, target_neighbours);
    const auto features = PairFeatures(stats_s, stats_t);
    if (svm.Predict(features) == 1) selected.push_back(s);
  }
  return selected;
}

Result<std::vector<int>> LocItTransfer::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target feature spaces differ");
  }
  const ExecutionContext& context = *run_options.context;
  TRANSER_RETURN_IF_ERROR(context.Check("locit", run_options.diagnostics));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "locit",
      transfer_internal::DomainWorkingSetBytes(source, target),
      run_options.diagnostics));

  auto selected = SelectInstances(source, target, run_options);
  if (!selected.ok()) return selected.status();

  // With nothing transferable (or a single class), LocIT* labels
  // everything non-match — the all-zero rows of Table 2.
  const FeatureMatrix chosen = source.Select(selected.value());
  if (chosen.CountMatches() == 0 || chosen.CountNonMatches() == 0) {
    return std::vector<int>(target.size(), kNonMatch);
  }
  auto classifier = make_classifier();
  classifier->set_execution_context(&context);
  classifier->Fit(chosen.ToMatrix(), transfer_internal::RequireLabels(chosen));
  TRANSER_RETURN_IF_ERROR(context.Check("locit", run_options.diagnostics));
  return classifier->PredictAll(target.ToMatrix());
}

}  // namespace transer
